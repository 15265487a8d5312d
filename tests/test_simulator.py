import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evframes.ingest import parse_text, write_text
from evframes.simulator import SimConfig, simulate
from evframes.stream import validate_stream
from tests.oracles import scalar_pixel_events, scene_events


def single_pixel_scene(log_levels, times):
    """Build a (N, 1, 1) intensity stack whose log equals log_levels."""
    return np.exp(np.asarray(log_levels, dtype=np.float64)).reshape(-1, 1, 1), np.asarray(times)


class TestBasicScenes:
    def test_constant_scene_is_silent(self):
        frames = np.full((5, 4, 6), 7.25)
        out = simulate(frames, [0, 100, 200, 300, 400], SimConfig(0.1))
        assert len(out) == 0
        assert out.geometry.width == 6
        assert out.geometry.height == 4

    def test_ramp_crossing_times(self):
        # Log intensity rises 3.5 thresholds over 1 ms: crossings at
        # 1000*k/3.5 for k=1..3, rounded half-up.
        c = 0.2
        frames, times = single_pixel_scene([0.0, 3.5 * c], [0, 1000])
        out = simulate(frames, times, SimConfig(contrast_threshold=c))
        assert out.t.tolist() == [286, 571, 857]
        assert out.p.tolist() == [1, 1, 1]
        assert out.x.tolist() == [0, 0, 0]

    def test_falling_ramp_gives_negative_events(self):
        c = 0.25
        frames, times = single_pixel_scene([1.0, 1.0 - 2.5 * c], [0, 1000])
        out = simulate(frames, times, SimConfig(contrast_threshold=c))
        assert out.p.tolist() == [-1, -1]
        assert out.t.tolist() == [400, 800]

    def test_subthreshold_change_is_silent(self):
        frames, times = single_pixel_scene([0.0, 0.19], [0, 500])
        out = simulate(frames, times, SimConfig(contrast_threshold=0.2))
        assert len(out) == 0

    def test_event_count_is_floor_of_log_span(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = float(rng.uniform(0.05, 0.5))
            span = float(rng.uniform(0.0, 10.0)) * c
            frames, times = single_pixel_scene([0.0, span], [0, 10_000])
            out = simulate(frames, times, SimConfig(contrast_threshold=c))
            assert len(out) == int(math.floor(span / c))

    def test_intensity_scaling_is_bit_identical(self):
        rng = np.random.default_rng(21)
        frames = rng.uniform(0.5, 2.0, size=(6, 3, 3))
        times = np.arange(6) * 1000
        cfg = SimConfig(contrast_threshold=0.15)
        base = simulate(frames, times, cfg)
        scaled = simulate(frames * 37.5, times, cfg)
        assert scaled == base


class TestRefractory:
    def test_refractory_suppresses_but_keeps_stepping(self):
        # Crossings land ~285.7 us apart; a 300 us dead time drops the middle
        # one, and the third survives because the gap is measured from the
        # last *emitted* event.
        c = 0.2
        frames, times = single_pixel_scene([0.0, 3.5 * c], [0, 1000])
        out = simulate(frames, times, SimConfig(c, refractory_period_us=300))
        assert out.t.tolist() == [286, 857]

    def test_zero_refractory_keeps_everything(self):
        c = 0.2
        frames, times = single_pixel_scene([0.0, 3.5 * c], [0, 1000])
        assert len(simulate(frames, times, SimConfig(c, 0))) == 3

    def test_huge_refractory_keeps_first_event_only(self):
        c = 0.1
        frames, times = single_pixel_scene([0.0, 1.0, 2.0], [0, 1000, 2000])
        out = simulate(frames, times, SimConfig(c, refractory_period_us=10_000_000))
        assert len(out) == 1
        assert out.t[0] == 100


class TestAgainstScalarWalk:
    def test_random_single_pixel_traces(self):
        rng = np.random.default_rng(1234)
        for _ in range(80):
            n = int(rng.integers(2, 8))
            levels = np.cumsum(rng.normal(0.0, 0.4, size=n))
            times = np.cumsum(rng.integers(50, 2000, size=n)) - 50
            c = float(rng.uniform(0.05, 0.6))
            refr = float(rng.choice([0, 0, 100, 700]))
            frames, times = single_pixel_scene(levels, times)
            out = simulate(frames, times, SimConfig(c, int(refr)))
            expected = scalar_pixel_events(levels, times, c, refr)
            assert [(int(t), int(p)) for t, p in zip(out.t, out.p)] == expected

    def test_multi_pixel_scene_matches_per_pixel_walks(self):
        rng = np.random.default_rng(99)
        h, w, n = 5, 7, 6
        log_frames = np.cumsum(rng.normal(0.0, 0.3, size=(n, h, w)), axis=0)
        times = np.arange(n, dtype=np.int64) * 1500
        c = 0.2
        out = simulate(np.exp(log_frames), times, SimConfig(c, 200))

        per_pixel = {}
        for yy in range(h):
            for xx in range(w):
                ev = scalar_pixel_events(log_frames[:, yy, xx], times, c, 200)
                if ev:
                    per_pixel[(xx, yy)] = ev
        got = {}
        for e in out:
            got.setdefault((e.x, e.y), []).append((e.t, e.p))
        assert got == per_pixel


@st.composite
def scenes(draw):
    """(log frames, frame times, threshold, refractory) of a random scene of 3+ frames.

    Levels on a grid of tenths land crossings exactly on frame times and
    give several pixels the same crossing times. Frame times spread over
    0..2**53, or crowd at either end of it.
    """
    n, height, width = draw(st.integers(3, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    level = st.integers(-30, 30).map(lambda k: k / 10) | st.floats(-3.0, 3.0)
    logs = draw(st.lists(level, min_size=n * height * width, max_size=n * height * width))
    gaps = st.lists(st.integers(1, 5000), min_size=n - 1, max_size=n - 1)
    times = draw(
        st.sets(st.integers(0, 2**53), min_size=n, max_size=n).map(sorted)
        | gaps.map(lambda g: np.cumsum([0, *g]).tolist())
        | gaps.map(lambda g: (2**53 - np.cumsum([0, *g])[::-1]).tolist())
    )
    threshold = draw(st.sampled_from([0.1, 0.2, 0.25, 0.3]))
    refractory = draw(st.sampled_from([0, 0, 1, 300, 10**6, 10**15]))
    return np.reshape(logs, (n, height, width)), np.array(times, dtype=np.int64), threshold, refractory


class TestAgainstSceneOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scenes())
    # A crossing whose level rounds past its interval's first frame: see below.
    @example(([[[-0.3]], [[0.9]], [[0.9 + 1e-9]]], np.array([0, 1000, 10**12]), 0.2, 0))
    def test_matches_the_scalar_walks_in_output_order(self, scene):
        logs, times, threshold, refractory = scene
        frames = np.exp(logs)
        out = simulate(frames, times, SimConfig(threshold, refractory))
        expected = scene_events(np.log(frames), times, threshold, refractory)
        # (t, row-major pixel) order; a pixel's events at one time stay chronological
        expected.sort(key=lambda e: (e[0], e[2], e[1]))
        assert list(zip(out.t.tolist(), out.x.tolist(), out.y.tolist(), out.p.tolist())) == expected

    def test_no_event_rounds_to_before_its_interval(self):
        # 1.2 / 0.2 floors to 5 crossings in the first interval, and the reference
        # 0.7 plus 0.2 rounds to just below 0.9. The sixth crossing, of the second
        # interval, thus sits at a level its start already passed, and the tiny
        # slope there used to place it 110 ms before time 0.
        frames, times = single_pixel_scene([-0.3, 0.9, 0.9 + 1e-9], [0, 1000, 10**12])
        out = simulate(frames, times, SimConfig(0.2))
        assert out.t.tolist() == [167, 333, 500, 667, 833, 1000]
        assert validate_stream(out) == []


class TestOutputOrdering:
    def test_sorted_by_time_then_row_major_pixel(self):
        rng = np.random.default_rng(5)
        frames = rng.uniform(0.5, 2.0, size=(4, 6, 6))
        out = simulate(frames, [0, 1000, 2000, 3000], SimConfig(0.05))
        assert len(out) > 0
        keys = list(zip(out.t.tolist(), (out.y.astype(np.int64) * 6 + out.x).tolist()))
        assert keys == sorted(keys)

    def test_simultaneous_pixels_ordered_row_major(self):
        # Two pixels with identical ramps cross at identical times.
        frames = np.ones((2, 2, 2))
        frames[1] = np.e  # one full decade of log range everywhere
        out = simulate(frames, [0, 1000], SimConfig(contrast_threshold=0.4))
        per_time = {}
        for e in out:
            per_time.setdefault(e.t, []).append(e.y * 2 + e.x)
        for pixels in per_time.values():
            assert pixels == [0, 1, 2, 3]


class TestRoundTrip:
    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        frames = rng.uniform(0.5, 2.0, size=(5, 4, 4))
        out = simulate(frames, [0, 500, 1000, 1500, 2000], SimConfig(0.1))
        assert validate_stream(out) == []
        path = tmp_path / "sim.txt"
        path.write_text(write_text(out))
        back = parse_text(path.read_text(), out.geometry)
        assert back == out


class TestValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="contrast_threshold"):
            SimConfig(contrast_threshold=0.0)

    def test_refractory_must_be_non_negative(self):
        with pytest.raises(ValueError, match="refractory"):
            SimConfig(0.2, refractory_period_us=-1)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="two frames"):
            simulate(np.ones((1, 2, 2)), [0])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="N, H, W"):
            simulate(np.ones((3, 2)), [0, 1, 2])

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate(np.ones((3, 2, 2)), [0, 1000, 1000])

    @pytest.mark.parametrize(
        "times",
        [[2**63 - 1001, 2**63 - 1], [2**62, 2**62 + 1000], [2**53, 2**53 + 1], [-1000, 0]],
        ids=["near-int64-max", "2^62", "past-2^53", "negative"],
    )
    def test_rejects_times_float64_cannot_hold_exactly(self, times):
        frames = np.array([np.full((2, 2), 1.0), np.full((2, 2), 50.0)])
        with pytest.raises(ValueError, match=r"^frame timestamps must lie in 0\.\.9007199254740992 us$"):
            simulate(frames, times)

    def test_times_at_the_ends_of_the_range_are_simulated(self):
        frames = np.array([np.full((2, 2), 1.0), np.full((2, 2), 50.0)])
        for times in ([0, 1000], [2**53 - 1000, 2**53]):
            out = simulate(frames, times)
            assert len(out) == 4 * math.floor(math.log(50.0) / 0.2)
            assert times[0] <= out.t.min() and out.t.max() <= times[1]

    def test_rejects_timestamp_count_mismatch(self):
        with pytest.raises(ValueError, match="timestamps"):
            simulate(np.ones((3, 2, 2)), [0, 1000])

    def test_rejects_non_positive_intensity(self):
        frames = np.ones((2, 2, 2))
        frames[1, 0, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            simulate(frames, [0, 1000])
