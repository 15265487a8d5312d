import tracemalloc
from itertools import islice

import numpy as np
import pytest

from evframes import windowing
from evframes.encoders import KIND_TIMESTAMP, POLARITY_MERGED, encode_blocks
from evframes.stream import DVS128_GEOMETRY, EventStream, truncate_by_ratio
from evframes.windowing import EventWindow, WindowConfig, segment

from tests.oracles import encode_per_window, stream_of

from .test_stream import make_stream, random_stream


def brute_force_assignment(stream, T):
    """Independent oracle: window index of each event is floor((t - t_first)/T)."""
    t_first = int(stream.t[0])
    return [(int(t) - t_first) // T for t in stream.t]


class TestWindowConfig:
    def test_default_is_80ms(self):
        assert WindowConfig().window_length_us == 80_000

    def test_positive_required(self):
        with pytest.raises(ValueError):
            WindowConfig(0)

    def test_numpy_integer_is_stored_as_python_int(self):
        # As an np.int64, the last window's end 2**63 would wrap to -2**63.
        config = WindowConfig(np.int64(2**62))
        assert type(config.window_length_us) is int
        s = make_stream([(0, 0, 0, 1), (1, 1, 2**63 - 2, -1)])
        with pytest.raises(ValueError, match="last window would end at 9223372036854775808"):
            segment(s, config)

    @pytest.mark.parametrize("length", [1000.5, 80_000.0])
    def test_non_integer_refused(self, length):
        with pytest.raises(ValueError, match=f"^window length must be an integer, got {length}$"):
            WindowConfig(length)


class TestSegment:
    def test_empty_stream(self):
        assert segment(stream_of(DVS128_GEOMETRY, []), WindowConfig()) == []

    def test_both_events_inside_one_window(self):
        s = make_stream([(0, 0, 0, 1), (0, 0, 79_999, 1)])
        windows = segment(s, WindowConfig(80_000))
        assert len(windows) == 1
        assert len(windows[0]) == 2
        assert windows[0].window_start == 0
        assert windows[0].window_end == 80_000

    def test_half_open_boundary(self):
        s = make_stream([(0, 0, 0, 1), (0, 0, 80_000, 1)])
        windows = segment(s, WindowConfig(80_000))
        assert [len(w) for w in windows] == [1, 1]
        assert list(windows[1].t) == [80_000]

    def test_empty_interior_window_emitted(self):
        s = make_stream([(0, 0, 0, 1), (0, 0, 100, 1), (0, 0, 200_000, 1)])
        windows = segment(s, WindowConfig(80_000))
        expected_idx = brute_force_assignment(s, 80_000)
        assert expected_idx == [0, 0, 2]
        assert [len(w) for w in windows] == [2, 0, 1]
        assert windows[1].empty
        assert windows[1].t_begin is None and windows[1].t_end is None

    def test_anchored_at_first_event(self):
        s = make_stream([(0, 0, 1_000_000, 1), (0, 0, 1_050_000, 1)])
        windows = segment(s, WindowConfig(80_000))
        assert len(windows) == 1
        assert windows[0].window_start == 1_000_000

    def test_single_event_stream(self):
        s = make_stream([(3, 4, 12_345, -1)])
        windows = segment(s, WindowConfig(80_000))
        assert len(windows) == 1
        assert windows[0].t_begin == windows[0].t_end == 12_345

    @pytest.mark.parametrize("T", [20_000, 50_000, 80_000])
    def test_partition_property(self, T):
        rng = np.random.default_rng(T)
        for _ in range(20):
            s = random_stream(rng, int(rng.integers(1, 300)), span_us=400_000)
            windows = segment(s, WindowConfig(T))
            span = int(s.t[-1]) - int(s.t[0])
            assert len(windows) == -(-(span + 1) // T)  # ceil
            # every event in exactly one window, order preserved
            assert sum(len(w) for w in windows) == len(s)
            recombined = np.concatenate([w.t for w in windows])
            assert np.array_equal(recombined, s.t)
            for k, w in enumerate(windows):
                assert w.window_start == int(s.t[0]) + k * T
                assert w.window_end == w.window_start + T
                if not w.empty:
                    assert w.window_start <= w.t_begin <= w.t_end < w.window_end

    def test_truncate_ratio_one_preserves_segmentation(self):
        rng = np.random.default_rng(5)
        s = random_stream(rng, 250)
        cfg = WindowConfig(20_000)
        assert segment(truncate_by_ratio(s, 1.0), cfg) == segment(s, cfg)

    def test_last_edge_beyond_int64_rejected(self):
        # The edge t_first + 1000 wraps in int64; it must not pass silently.
        s = make_stream([(0, 0, 9223372036854775000, 1), (1, 1, 9223372036854775800, -1)])
        with pytest.raises(ValueError, match="int64"):
            segment(s, WindowConfig(1000))

    @pytest.mark.parametrize("cuts", [[], [1]], ids=["one-block", "two-blocks"])
    def test_window_end_overflow_rejected_before_the_first_window(self, cuts):
        # 1.15e14 windows of 80 ms, the last ending past 2**63 - 1: the
        # error comes before any of them, not after the last.
        s = make_stream([(0, 0, 0, 1), (0, 0, 2**63 - 2, 1)])
        edge = ((2**63 - 2) // 80_000 + 1) * 80_000
        windows = encode_blocks(split(s, cuts), WindowConfig(80_000))
        with pytest.raises(ValueError, match=f"last window would end at {edge}, beyond"):
            next(windows)

    @pytest.mark.parametrize("cuts", [[], [1]], ids=["one-block", "two-blocks"])
    def test_more_windows_than_a_tensor_holds_rejected_before_the_first(self, cuts, monkeypatch):
        monkeypatch.setattr(windowing, "MAX_FRAME_COUNT", 3)
        three = make_stream([(0, 0, 0, 1), (0, 0, 2_999, 1)])
        assert len(list(encode_blocks(split(three, cuts), WindowConfig(1000)))) == 3
        five = make_stream([(0, 0, 0, 1), (0, 0, 4_999, 1)])
        windows = encode_blocks(split(five, cuts), WindowConfig(1000))
        with pytest.raises(ValueError, match=(
            r"^stream would need 5 windows, more than the 3 frames of a frame tensor "
            r"\(events 0\.\.4999, window 1000 us\)$"
        )):
            next(windows)

    def test_last_edge_at_int64_max_accepted(self):
        top = 2**63 - 1
        s = make_stream([(0, 0, top - 1000, 1), (1, 1, top - 1, -1)])
        windows = segment(s, WindowConfig(1000))
        assert [(w.window_start, w.window_end, len(w)) for w in windows] == [
            (top - 1000, top, 2)
        ]

    def test_windows_share_stream_geometry(self):
        s = make_stream([(0, 0, 0, 1)])
        assert segment(s, WindowConfig())[0].geometry == s.geometry


def split(stream, cuts):
    """The stream as consecutive blocks, cut before the given event indices."""
    bounds = [0, *cuts, len(stream)]
    return [
        EventStream(stream.geometry, stream.x[a:b], stream.y[a:b], stream.t[a:b], stream.p[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


class TestSegmentBlocks:
    """Windows of a stream that arrives in blocks, as encode_blocks tiles them."""

    @pytest.mark.parametrize("T", [1, 7, 100])
    def test_gappy_blocks_match_brute_force(self, T):
        rng = np.random.default_rng(T)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            gaps = np.where(rng.random(n) < 0.2, rng.integers(0, 60 * T, n), rng.integers(0, T, n))
            s = EventStream(DVS128_GEOMETRY, rng.integers(0, 128, n), rng.integers(0, 128, n),
                            np.cumsum(gaps), rng.choice([-1, 1], n))
            windows = segment(s, WindowConfig(T))
            index = brute_force_assignment(s, T)
            t_first = int(s.t[0])
            assert len(windows) == index[-1] + 1
            for k, w in enumerate(windows):
                assert (w.window_start, w.window_end) == (t_first + k * T, t_first + (k + 1) * T)
                assert w.t.tolist() == [int(t) for t, i in zip(s.t, index) if i == k]
            # The same windows when the stream arrives in blocks cut at random.
            cuts = np.sort(rng.choice(np.arange(n + 1), size=int(rng.integers(0, n + 1))))
            frames = list(encode_blocks(split(s, cuts.tolist()), WindowConfig(T)))
            assert frames == encode_per_window(s, WindowConfig(T), KIND_TIMESTAMP, POLARITY_MERGED)

    def test_time_gap_yields_first_windows_in_bounded_memory(self):
        # Two events 4.3e9 us apart are 4.3 million windows of 1 ms.
        s = make_stream([(1, 2, 5, 1), (3, 4, 4_300_000_005, -1)])
        frames = encode_blocks([s], WindowConfig(1000))
        tracemalloc.start()
        try:
            first = next(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        following = list(islice(frames, 3))
        assert [(f.window_start, f.empty) for f in [first, *following]] == [
            (5, False), (1005, True), (2005, True), (3005, True)
        ]
        # The one event of the first window, positive at x=1, y=2.
        assert np.argwhere(first.pixels).tolist() == [[2, 1, 0]]
