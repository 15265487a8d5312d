"""The plain-Python loops in ``tests/oracles.py`` are the oracles for the vectorized paths."""

import numpy as np
import pytest

from evframes import BACKEND
from evframes.encoders import (
    encode_stream,
    encode_window,
    event_count_field,
    quantize,
    timestamp_field,
)
from evframes.options import KIND_EVENT_COUNT, KIND_TIMESTAMP, POLARITY_IGNORE, POLARITY_MERGED
from evframes.simulator import SimConfig, simulate, simulate_intervals
from evframes.stream import EventStream, SensorGeometry
from evframes.windowing import EventWindow, WindowConfig, segment
from tests.oracles import loop_field, loop_frame, scene_events


def random_scene(rng, n_frames=6, height=8, width=9):
    log_frames = np.cumsum(rng.normal(0.0, 0.35, size=(n_frames, height, width)), axis=0)
    times = (np.arange(n_frames, dtype=np.int64) + 1) * 1000
    return np.ascontiguousarray(log_frames), times


def random_window(rng, n, width, height):
    x = rng.integers(0, width, size=n, dtype=np.int32)
    y = rng.integers(0, height, size=n, dtype=np.int32)
    t = np.sort(rng.integers(0, 1_000_000, size=n)).astype(np.int64)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    return EventWindow(SensorGeometry(width, height), x, y, t, p, 0, 1_000_000)


class TestLoopVsNumpy:
    """The plain-Python loops are the ground truth for the vectorized paths."""

    def test_count_field(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = random_window(rng, int(rng.integers(0, 500)), 13, 7)
            for polarity in (None, 1, -1):
                a = loop_field(w, KIND_EVENT_COUNT, polarity)
                b = event_count_field(w, polarity)
                np.testing.assert_array_equal(a, b)

    def test_last_timestamp_field(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = random_window(rng, int(rng.integers(0, 500)), 13, 7)
            for polarity in (None, 1, -1):
                a = loop_field(w, KIND_TIMESTAMP, polarity)
                b = timestamp_field(w, polarity)
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", [KIND_TIMESTAMP, KIND_EVENT_COUNT])
    @pytest.mark.parametrize("polarity_mode", [POLARITY_MERGED, POLARITY_IGNORE])
    def test_encode_stream(self, kind, polarity_mode):
        rng = np.random.default_rng(6)
        channels = 3 if polarity_mode == POLARITY_MERGED else 1
        folded = 0
        for i in range(40):
            width, height = (1, 1) if i % 4 == 0 else (int(rng.integers(1, 20)), 9)
            n = int(rng.integers(2, 400))
            T = int(rng.choice([1, 7, 1000]))
            # Few distinct times repeat timestamps; a 10*T gap leaves interior windows empty.
            t = np.sort(rng.integers(0, 60, size=n)) * T // 4
            t[n // 2 :] += 10 * T
            stream = EventStream(
                SensorGeometry(width, height),
                rng.integers(0, width, size=n),
                rng.integers(0, height, size=n),
                t,
                rng.choice([-1, 1], size=n),
            )
            windows = segment(stream, WindowConfig(T))
            frames = encode_stream(stream, WindowConfig(T), kind, polarity_mode)
            assert any(w.empty for w in windows)
            folded += sum(len(w) > width * height * channels for w in windows)
            assert len(frames) == len(windows)
            for frame, w in zip(frames, windows):
                assert (frame.window_start, frame.window_end) == (w.window_start, w.window_end)
                assert frame.empty == w.empty
                np.testing.assert_array_equal(frame.pixels, loop_frame(w, kind, polarity_mode))
        # The 1x1 sensors give windows denser than their frame, which encode_stream folds.
        assert folded

    def test_simulate_crossings(self):
        rng = np.random.default_rng(2)
        # In the deep scene, pixel (2, 1) crosses 25 times in its first interval
        # and 20 in its second, so the refractory gate steps over many ranks.
        deep = random_scene(np.random.default_rng(20), n_frames=3, height=2, width=3)
        deep[0][1:, 1, 2] += [5.13, 0.9]
        everything = scene_events(*deep, 0.2)
        assert sum(t <= 2000 and (x, y) == (2, 1) for t, x, y, _ in everything) >= 20
        for refractory in (0, 120, 1500):
            for log_frames, times in [random_scene(rng) for _ in range(10)] + [deep]:
                expected = scene_events(log_frames, times, 0.2, refractory)
                assert generated_events(log_frames, times, 0.2, refractory) == sorted(
                    expected, key=lambda e: (e[0], e[2], e[1])
                )
            if refractory:
                assert len(scene_events(*deep, 0.2, refractory)) <= 2 / 3 * len(everything)


def generated_events(log_frames, times, threshold, refractory_us):
    """The interval generator's events, joined, as (t, x, y, p) tuples in output order."""
    blocks = simulate_intervals(log_frames, times, SimConfig(threshold, refractory_us))
    return [e for b in blocks for e in zip(b.t.tolist(), b.x.tolist(), b.y.tolist(), b.p.tolist())]


def one_window(geometry, events):
    """A window over (x, y, p) events at times 0, 1, 2, ..."""
    x, y, p = (np.array(c) for c in zip(*events))
    t = np.arange(len(events), dtype=np.int64)
    return EventWindow(geometry, x.astype(np.int32), y.astype(np.int32), t, p.astype(np.int8),
                       0, len(events))


class TestCountFrameShortcut:
    """Count cells are assigned, not maximum-scattered: all events of a cell carry one count."""

    @pytest.mark.parametrize("polarity_mode", [POLARITY_MERGED, POLARITY_IGNORE])
    def test_all_events_in_one_cell(self, polarity_mode):
        rng = np.random.default_rng(8)
        w = one_window(SensorGeometry(5, 4), [(3, 2, int(p)) for p in rng.choice([-1, 1], 37)])
        frame = encode_window(w, KIND_EVENT_COUNT, polarity_mode)
        np.testing.assert_array_equal(frame.pixels, loop_frame(w, KIND_EVENT_COUNT, polarity_mode))
        assert np.count_nonzero(frame.pixels) == (2 if polarity_mode == POLARITY_MERGED else 1)

    def test_both_polarities_on_one_pixel(self):
        # Pixel (1, 1) gets 3 positive and 5 negative events, interleaved.
        events = [(1, 1, 1), (1, 1, -1), (0, 2, 1), (1, 1, -1), (1, 1, 1), (4, 3, -1),
                  (1, 1, -1), (1, 1, -1), (0, 2, 1), (1, 1, 1), (1, 1, -1)]
        w = one_window(SensorGeometry(5, 4), events)
        pixels = encode_window(w, KIND_EVENT_COUNT, POLARITY_MERGED).pixels
        np.testing.assert_array_equal(pixels, loop_frame(w, KIND_EVENT_COUNT, POLARITY_MERGED))
        assert pixels[1, 1].tolist() == [153, 255, 0]  # round(255 * 3/5), 5 of v_max 5
        assert pixels[2, 0].tolist() == [102, 0, 0]
        assert pixels[3, 4].tolist() == [0, 51, 0]

    def test_quantize_int64_counts_equal_their_float64_values(self):
        for v_max in range(1, 513):
            counts = np.arange(v_max + 1, dtype=np.int64)
            q = quantize(counts, float(v_max))
            np.testing.assert_array_equal(q, quantize(counts.astype(np.float64), float(v_max)))
            np.testing.assert_array_equal(q, (510 * counts + v_max) // (2 * v_max))


class TestSinglePath:
    def test_backend_is_numpy(self):
        assert BACKEND == "numpy"

    def test_one_pixel_ramp(self):
        # One pixel ramps 0 -> 0.5 log units over 1000 us: crossings at 0.2 and 0.4.
        out = simulate(np.exp([[[0.0]], [[0.5]]]), [0, 1000], SimConfig(0.2))
        assert out.t.tolist() == [400, 800]
        assert out.x.tolist() == out.y.tolist() == [0, 0]
        assert out.p.tolist() == [1, 1]
