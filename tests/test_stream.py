import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evframes.ingest import FormatError
from evframes.options import DVS128_GEOMETRY, SensorGeometry
from evframes.stream import EventStream, truncate_blocks, truncate_by_ratio

from tests.oracles import events, split, stream_of, validate_stream


def make_stream(evs, geometry=DVS128_GEOMETRY):
    return stream_of(geometry, evs)


def random_stream(rng, n, geometry=DVS128_GEOMETRY, span_us=1_000_000):
    t = np.sort(rng.integers(0, span_us, size=n))
    x = rng.integers(0, geometry.width, size=n)
    y = rng.integers(0, geometry.height, size=n)
    p = rng.choice([-1, 1], size=n)
    return EventStream(geometry, x, y, t, p)


class TestEventStream:
    def test_empty(self):
        s = stream_of(DVS128_GEOMETRY, [])
        assert len(s) == 0
        assert events(s) == []
        for end in ("first", "last"):
            with pytest.raises(ValueError, match=f"^empty stream has no {end} timestamp$"):
                getattr(s, f"t_{end}")

    def test_indexing_returns_events(self):
        s = make_stream([(2, 18, 100, -1), (5, 7, 200, 1)])
        assert events(s)[0] == (2, 18, 100, -1)
        assert events(s)[1] == (5, 7, 200, 1)

    def test_columns_are_read_only(self):
        s = make_stream([(1, 1, 10, 1)])
        with pytest.raises(ValueError):
            s.t[0] = 0

    def test_callers_arrays_stay_writable(self):
        x, t, p = np.array([1, 2], np.int32), np.array([10, 20]), np.array([1, -1], np.int8)
        s = EventStream(DVS128_GEOMETRY, x, x, t, p)
        x[0] = 3  # the caller's arrays are theirs to change
        t[0] = 15
        p[0] = -1
        for column in (s.x, s.y, s.t, s.p):
            with pytest.raises(ValueError):
                column[1] = 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            EventStream(DVS128_GEOMETRY, [1, 2], [1], [10, 20], [1, 1])

    def test_geometry_must_be_positive(self):
        with pytest.raises(ValueError):
            SensorGeometry(0, 128)

    @pytest.mark.parametrize(
        "size, message",
        [((4.0, 4), "width must be an integer, got 4.0"),
         ((4, 4.0), "height must be an integer, got 4.0"),
         (("4", 4), "width must be an integer, got '4'")],
    )
    def test_geometry_sides_must_be_integers(self, size, message):
        with pytest.raises(ValueError, match=f"^geometry {message}$"):
            SensorGeometry(*size)

    def test_geometry_sides_are_python_ints(self):
        g = SensorGeometry(np.int64(128), np.int32(64))
        assert (type(g.width), type(g.height)) == (int, int)
        assert (g.width, g.height) == (128, 64)

    @pytest.mark.parametrize("size", [(2**31, 1), (1, 2**31), (4_000_000_000, 1)])
    def test_geometry_must_fit_int32_columns(self, size):
        with pytest.raises(ValueError, match=r"^geometry sides must be at most 2147483647, got "):
            SensorGeometry(*size)
        # At the largest geometry, the last in-bounds coordinate fits its column.
        g = SensorGeometry(2**31 - 1, 2**31 - 1)
        assert events(EventStream(g, [2**31 - 2], [2**31 - 2], [0], [1])) == [
            (2**31 - 2, 2**31 - 2, 0, 1)
        ]

    @pytest.mark.parametrize("i", range(4), ids=["x", "y", "t", "p"])
    def test_columns_must_be_one_dimensional(self, i):
        columns = [[1, 2], [3, 4], [10, 20], [1, -1]]
        columns[i] = [columns[i]]  # shape (1, 2)
        message = r"^event columns must be one-dimensional, got shape \(1, 2\)$"
        with pytest.raises(ValueError, match=message):
            EventStream(DVS128_GEOMETRY, *columns)


class TestValidateStream:
    def test_empty_stream_is_valid(self):
        assert validate_stream(stream_of(DVS128_GEOMETRY, [])) == []

    def test_non_monotone_timestamp(self):
        s = make_stream([(0, 0, 5, 1), (0, 0, 3, 1)])
        violations = validate_stream(s)
        assert len(violations) == 1
        assert violations[0].index == 1
        assert "non-monotone" in violations[0].message

    def test_out_of_bounds_x(self):
        s = make_stream([(128, 0, 10, 1)])
        violations = validate_stream(s)
        assert len(violations) == 1
        assert violations[0].index == 0
        assert "out of bounds" in violations[0].message

    def test_illegal_polarity_and_negative_time(self):
        s = make_stream([(1, 1, -5, 0)])
        messages = [v.message for v in validate_stream(s)]
        assert any("polarity" in m for m in messages)
        assert any("negative timestamp" in m for m in messages)

    def test_valid_random_stream(self):
        rng = np.random.default_rng(7)
        assert validate_stream(random_stream(rng, 500)) == []


class TestTruncateByRatio:
    def test_ratio_one_is_identity(self):
        rng = np.random.default_rng(11)
        s = random_stream(rng, 200)
        assert truncate_by_ratio(s, 1.0) == s

    def test_inclusive_cutoff(self):
        s = make_stream([(0, 0, t, 1) for t in (0, 10, 50, 100)])
        out = truncate_by_ratio(s, 0.5)
        assert list(out.t) == [0, 10, 50]

    def test_uniform_spacing_matches_brute_force(self):
        # 1000 uniformly spaced events over one second, ratio 0.1.
        ts = np.array([round(k * 1_000_000 / 999) for k in range(1000)], dtype=np.int64)
        s = EventStream(DVS128_GEOMETRY, np.zeros(1000), np.zeros(1000), ts, np.ones(1000))
        out = truncate_by_ratio(s, 0.1)
        cutoff = ts[0] + 0.1 * (ts[-1] - ts[0])
        expected = [int(t) for t in ts if t <= cutoff]
        assert len(expected) == 100
        assert list(out.t) == expected

    def test_empty_stream_error(self):
        with pytest.raises(ValueError, match="cannot truncate empty stream"):
            truncate_by_ratio(stream_of(DVS128_GEOMETRY, []), 0.5)

    def test_ratio_out_of_range(self):
        s = make_stream([(0, 0, 0, 1)])
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                truncate_by_ratio(s, ratio)

    def test_smaller_ratio_yields_prefix_of_larger(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            s = random_stream(rng, int(rng.integers(1, 400)))
            r1, r2 = sorted(rng.uniform(0.05, 1.0, size=2))
            a = truncate_by_ratio(s, r1)
            b = truncate_by_ratio(s, r2)
            assert len(a) <= len(b)
            assert np.array_equal(a.t, b.t[: len(a)])
            assert np.array_equal(a.x, b.x[: len(a)])

    def test_geometry_preserved(self):
        g = SensorGeometry(240, 180)
        s = make_stream([(0, 0, 0, 1), (1, 1, 100, -1)], geometry=g)
        assert truncate_by_ratio(s, 0.5).geometry == g


class CountingBlocks:
    """Re-iterable blocks that count how many blocks each pass reads."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.reads = []

    def __iter__(self):
        self.reads.append(0)
        for block in self.blocks:
            self.reads[-1] += 1
            yield block


def ticks_stream(t):
    """A DVS-128 stream with the given ticks, one event per column of row 3."""
    n = len(t)
    return EventStream(DVS128_GEOMETRY, [i % 128 for i in range(n)], [3] * n, t,
                       [(-1) ** i for i in range(n)])


@st.composite
def blocked_streams(draw):
    """(stream, its blocks, ratio): blocks may be empty, and the cutoff may fall on a block edge."""
    t = sorted(draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=40)))
    n = len(t)
    stream = ticks_stream(t)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))  # repeats make empty blocks
    span = t[-1] - t[0]
    edge = t[draw(st.sampled_from([*cuts, n])) - 1] - t[0]  # the last event of some block
    ratio = draw(
        st.one_of(
            st.just(1.0),
            st.floats(0.0, 1.0, exclude_min=True),
            st.just(edge / span if edge else 1.0),
        )
    )
    return stream, split(stream, cuts), ratio


# ratio * span is 4030.9999999999995 here, below the offset 4031 of tick 4137;
# t_first + ratio * span rounds up to 4137.0.
ROUNDED_UP = ticks_stream([106, 106, 106, 106, 4137, 4978])


class TestTruncateBlocks:
    @settings(max_examples=300, deadline=None)
    @given(blocked_streams())
    @example((ROUNDED_UP, split(ROUNDED_UP, [5]), 4031 / 4872))
    def test_join_equals_whole_stream_truncation(self, case):
        stream, blocks, ratio = case
        counting = CountingBlocks(blocks)
        heads = list(truncate_blocks(counting, ratio))
        joined = EventStream.concat(stream.geometry, heads)
        assert joined == truncate_by_ratio(stream, ratio)
        # Each event's offset from t_first against ratio * span, the rule's own
        # arithmetic; adding t_first back to the product can round it up a tick.
        cutoff = ratio * float(stream.t_last - stream.t_first)
        assert list(joined.t) == [t for t in stream.t.tolist() if t - stream.t_first <= cutoff]
        # The second pass stops at the first block that loses an event.
        n_keep = len(joined)
        ends = np.cumsum([len(b) for b in blocks])
        losers = [i for i, end in enumerate(ends) if end > n_keep]
        expected = losers[0] + 1 if losers else len(blocks)
        assert counting.reads == [len(blocks), expected]
        assert len(heads) == expected

    def test_cut_at_a_block_edge_reads_one_block_past_it(self):
        s = make_stream([(0, 0, t, 1) for t in (0, 50, 60, 100, 100)])
        counting = CountingBlocks(split(s, [2, 2, 4]))
        heads = list(truncate_blocks(counting, 0.5))
        assert [list(h.t) for h in heads] == [[0, 50], [], []]
        assert counting.reads == [4, 3]

    def test_one_shot_iterator_refused(self):
        blocks = [make_stream([(0, 0, 0, 1)])]
        with pytest.raises(TypeError, match="re-iterable"):
            truncate_blocks(iter(blocks), 1.0)
        with pytest.raises(TypeError, match="re-iterable"):
            truncate_blocks((b for b in blocks), 1.0)

    def test_errors_come_from_the_call_before_any_block_is_yielded(self):
        class Failing:
            def __iter__(self):
                yield make_stream([(0, 0, 0, 1)])
                raise FormatError("line 9: bad")

        with pytest.raises(FormatError, match="line 9"):
            truncate_blocks(Failing(), 0.5)
        empty = [stream_of(DVS128_GEOMETRY, [])] * 3
        with pytest.raises(ValueError, match="cannot truncate empty stream"):
            truncate_blocks(empty, 0.5)
        with pytest.raises(ValueError, match=r"ratio must be in \(0, 1\], got 1.5"):
            truncate_blocks([make_stream([(0, 0, 0, 1)])], 1.5)
