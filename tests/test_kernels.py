"""The plain-Python loops are the oracles for the vectorized and compiled paths."""

import numpy as np
import pytest

from evframes import _kernels
from evframes.encoders import (
    KIND_EVENT_COUNT,
    KIND_TIMESTAMP,
    POLARITY_IGNORE,
    POLARITY_MERGED,
    encode_window,
    event_count_field,
    quantize,
    timestamp_field,
)
from evframes.pipeline import encode_stream
from evframes.stream import EventStream, SensorGeometry
from evframes.windowing import EventWindow, WindowConfig, segment

needs_numba = pytest.mark.skipif(not _kernels.NUMBA_ENABLED, reason="numba backend disabled")


def random_events(rng, n, width, height):
    x = rng.integers(0, width, size=n, dtype=np.int32)
    y = rng.integers(0, height, size=n, dtype=np.int32)
    t = np.sort(rng.integers(0, 1_000_000, size=n)).astype(np.int64)
    return x, y, t


def random_scene(rng, n_frames=6, height=8, width=9):
    log_frames = np.cumsum(rng.normal(0.0, 0.35, size=(n_frames, height, width)), axis=0)
    times = (np.arange(n_frames, dtype=np.int64) + 1) * 1000
    return np.ascontiguousarray(log_frames), times


def random_window(rng, n, width, height):
    x, y, t = random_events(rng, n, width, height)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    return EventWindow(SensorGeometry(width, height), x, y, t, p, 0, 1_000_000)


def loop_field(window, kind, polarity):
    """A window's field from the loop kernels, normalized as the encoders define it."""
    g = window.geometry
    keep = np.ones(len(window), dtype=bool) if polarity is None else window.p == polarity
    x, y, t = window.x[keep], window.y[keep], window.t[keep]
    if kind == KIND_EVENT_COUNT:
        return _kernels._count_field_loop(x, y, g.width, g.height).astype(np.float64)
    last = _kernels._last_timestamp_loop(x, y, t, g.width, g.height)
    field = np.zeros((g.height, g.width))
    active = last >= 0
    if window.t_begin == window.t_end:
        field[active] = 1.0
    else:
        field[active] = (last[active] - window.t_begin) / (window.t_end - window.t_begin)
    return field


def loop_frame(window, kind, polarity_mode):
    """A window's uint8 pixels from loop fields: channel per polarity, shared scale."""
    polarities = (1, -1) if polarity_mode == POLARITY_MERGED else (None,)
    fields = [loop_field(window, kind, p) for p in polarities]
    v_max = 1.0 if kind == KIND_TIMESTAMP else max(float(f.max()) for f in fields)
    g = window.geometry
    pixels = np.zeros((g.height, g.width, 3 if polarity_mode == POLARITY_MERGED else 1), np.uint8)
    for c, field in enumerate(fields):
        pixels[..., c] = quantize(field, v_max)
    return pixels


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
            assert len(frames) == len(windows)
            for frame, w in zip(frames, windows):
                assert (frame.window_start, frame.window_end) == (w.window_start, w.window_end)
                assert frame.empty == w.empty
                np.testing.assert_array_equal(frame.pixels, loop_frame(w, kind, polarity_mode))

    def test_simulate_crossings(self):
        rng = np.random.default_rng(2)
        for refractory in (0.0, 120.0, 1500.0):
            for _ in range(10):
                log_frames, times = random_scene(rng)
                a = _kernels._simulate_crossings_loop(log_frames, times, 0.2, refractory)
                b = _kernels.simulate_crossings_numpy(log_frames, times, 0.2, refractory)
                assert_same_events(a, b, width=log_frames.shape[2])


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


@needs_numba
class TestJitVsNumpy:
    def test_simulate_crossings(self):
        rng = np.random.default_rng(5)
        for refractory in (0.0, 120.0, 1500.0):
            for _ in range(10):
                log_frames, times = random_scene(rng)
                a = _kernels._simulate_jit(log_frames, times, 0.2, refractory)
                b = _kernels.simulate_crossings_numpy(log_frames, times, 0.2, refractory)
                assert_same_events(a, b, width=log_frames.shape[2])


def assert_same_events(a, b, width):
    """Compare kernel outputs as (t, pixel)-sorted event sets, bit for bit."""
    ta, xa, ya, pa = a
    tb, xb, yb, pb = b
    assert len(ta) == len(tb)
    ka = np.lexsort((ya.astype(np.int64) * width + xa, ta))
    kb = np.lexsort((yb.astype(np.int64) * width + xb, tb))
    np.testing.assert_array_equal(ta[ka], tb[kb])
    np.testing.assert_array_equal(xa[ka], xb[kb])
    np.testing.assert_array_equal(ya[ka], yb[kb])
    np.testing.assert_array_equal(pa[ka], pb[kb])


class TestDispatch:
    def test_backend_name_is_exposed(self):
        assert _kernels.BACKEND in ("numba", "numpy")

    def test_dispatched_names_resolve(self):
        # One pixel ramps 0 -> 0.5 log units over 1000 us: crossings at 0.2 and 0.4.
        log_frames = np.array([[[0.0]], [[0.5]]])
        times = np.array([0, 1000], dtype=np.int64)
        t, x, y, p = _kernels.simulate_crossings(log_frames, times, 0.2, 0.0)
        assert list(t) == [400, 800]
        assert list(x) == list(y) == [0, 0]
        assert list(p) == [1, 1]

    def test_env_flag_selects_numpy_backend(self):
        import os
        import subprocess
        import sys

        # The child must import the same evframes this suite is testing,
        # whether it is installed or found through PYTHONPATH.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )

        def child_backend(env):
            code = "from evframes._kernels import BACKEND; print(BACKEND)"
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
            )
            assert out.returncode == 0, out.stderr
            return out

        # Control run: without the flag, numba is used wherever it imports,
        # so only the flag can turn the answer into "numpy" there.
        env.pop("EVFRAMES_NUMBA", None)
        try:
            import numba  # noqa: F401

            has_numba = True
        except ImportError:
            has_numba = False
        control = child_backend(env)
        assert control.stdout.strip() == ("numba" if has_numba else "numpy")

        env["EVFRAMES_NUMBA"] = "0"
        out = child_backend(env)
        assert out.stdout.strip() == "numpy"
