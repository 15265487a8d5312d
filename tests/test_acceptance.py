"""Acceptance gate: ten independently runnable end-to-end checks.

Every check records one ``[criterion NN] PASS/FAIL`` line; conftest.py
prints the collected scorecard after the run, so a plain

    python3 -m pytest tests/test_acceptance.py

always shows it (the lines are also print()ed for ``-s`` runs). Oracles
here are deliberately self-contained, brute-force re-derivations (dict
loops, scalar walks, exact rational rounding) rather than imports of
library internals.
"""

import functools
import math
import struct
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from evframes import BACKEND
from evframes.chunking import make_chunks
from evframes.cli import main as cli_main
from evframes.encoders import (
    KIND_EVENT_COUNT,
    KIND_TIMESTAMP,
    POLARITY_MERGED,
    EncodedFrame,
    encode_stream,
    encode_window,
    event_count_field,
    timestamp_field,
)
from evframes.formats import read_frame_tensor, write_frame_tensor
from evframes.ingest import parse_aedat2_stats, parse_text, write_text
from evframes.options import DVS128_GEOMETRY, DVS128_LAYOUT, SensorGeometry
from evframes.scoring import ScoreVector, temporal_average_pool
from evframes.simulator import SimConfig, simulate
from evframes.stream import EventStream
from evframes.windowing import EventWindow, WindowConfig, segment

from tests.oracles import events, scalar_pixel_events


SCORECARD: list[str] = []


def criterion(number, text):
    """Record (and print) one PASS/FAIL line per criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                _report(f"[criterion {number:02d}] FAIL  {text}")
                raise
            suffix = f"  ({detail})" if isinstance(detail, str) else ""
            _report(f"[criterion {number:02d}] PASS  {text}{suffix}")

        return wrapper

    return deco


def _report(line: str) -> None:
    SCORECARD.append(line)
    print(line, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def random_window(rng, max_side=16, max_events=200):
    width = int(rng.integers(1, max_side + 1))
    height = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_events + 1))
    span = int(rng.integers(1, 100_000))
    x = rng.integers(0, width, size=n).astype(np.int32)
    y = rng.integers(0, height, size=n).astype(np.int32)
    t = np.sort(rng.integers(0, span, size=n)).astype(np.int64)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    return EventWindow(SensorGeometry(width, height), x, y, t, p, 0, span)


def oracle_latest_time_field(window, polarity):
    """Per-pixel max filtered timestamp, normalized by the window-global span."""
    g = window.geometry
    latest = {}
    for i in range(len(window.t)):
        if polarity is not None and int(window.p[i]) != polarity:
            continue
        key = (int(window.x[i]), int(window.y[i]))
        if key not in latest or int(window.t[i]) > latest[key]:
            latest[key] = int(window.t[i])
    field = np.zeros((g.height, g.width))
    t_begin, t_end = int(window.t[0]), int(window.t[-1])
    for (x, y), t_n in latest.items():
        field[y, x] = 1.0 if t_end == t_begin else (t_n - t_begin) / (t_end - t_begin)
    return field


def oracle_histogram(window, polarity):
    g = window.geometry
    field = np.zeros((g.height, g.width))
    for i in range(len(window.t)):
        if polarity is None or int(window.p[i]) == polarity:
            field[int(window.y[i]), int(window.x[i])] += 1
    return field


def oracle_quantize(field, v_max):
    """round(255 * v / v_max) with exact half-up via rational arithmetic."""
    out = np.zeros(field.shape, dtype=np.uint8)
    if v_max <= 0:
        return out
    flat = out.reshape(-1)
    for i, v in enumerate(np.asarray(field, dtype=np.float64).reshape(-1)):
        flat[i] = int(Fraction(255 * Fraction(v), Fraction(v_max)) + Fraction(1, 2))
    return out


def oracle_sensor_walk(levels, times, threshold, refractory_us=0.0):
    """Scalar single-pixel sensor model; returns [(rounded_t, polarity)]."""
    ref = levels[0]
    last_emit = -math.inf
    out = []
    for f in range(len(levels) - 1):
        l0, l1 = levels[f], levels[f + 1]
        if l1 == l0:
            continue
        direction = 1.0 if l1 > l0 else -1.0
        n_cross = int(math.floor(direction * (l1 - ref) / threshold))
        if n_cross <= 0:
            continue
        inv_slope = (times[f + 1] - times[f]) / (l1 - l0)
        for k in range(1, n_cross + 1):
            level = ref + direction * k * threshold
            t_cross = times[f] + (level - l0) * inv_slope
            if refractory_us <= 0 or t_cross - last_emit >= refractory_us:
                # Never before the interval's first frame (README).
                t_out = max(int(math.floor(t_cross + 0.5)), int(times[f]))
                out.append((t_out, 1 if direction > 0 else -1))
                last_emit = t_cross
        ref += direction * n_cross * threshold
    return out


def test_sensor_walk_never_emits_before_its_interval():
    # 84 -> 53 is seven thresholds down, but float64 counts six in the first interval. The
    # seventh falls a hair before the second's first frame and rounds to 2**52 - 1 unclamped.
    intensities = np.array([84.0, 53.0, 12.0])
    times = [0, 2**52, 2**53]
    c = abs(math.log(53) - math.log(84)) / 7
    walk = oracle_sensor_walk(np.log(intensities), times, c)
    assert walk[6] == (2**52, -1)
    assert walk == scalar_pixel_events(np.log(intensities).tolist(), times, c)
    stream = simulate(intensities.reshape(3, 1, 1), times, SimConfig(c))
    assert [(t, p) for _, _, t, p in events(stream)] == walk


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


@criterion(1, "timestamp field equals brute-force oracle on 1000 random windows")
def test_criterion_01_timestamp_field():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    for i in range(1000):
        w = random_window(rng)
        polarity = (None, 1, -1)[i % 3]
        got = timestamp_field(w, polarity)
        assert np.array_equal(got, oracle_latest_time_field(w, polarity))
        assert got.min() >= 0.0 and got.max() <= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    return f"{elapsed:.2f}s"


@criterion(2, "count field equals brute-force histogram; polarity counts add up")
def test_criterion_02_count_field():
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    for _ in range(1000):
        w = random_window(rng)
        both = event_count_field(w, None)
        pos = event_count_field(w, 1)
        neg = event_count_field(w, -1)
        assert np.array_equal(both, oracle_histogram(w, None))
        assert np.array_equal(pos, oracle_histogram(w, 1))
        assert np.array_equal(pos + neg, both)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    return f"{elapsed:.2f}s"


@criterion(3, "negating polarities swaps merged channels 0 and 1 bit-exactly")
def test_criterion_03_polarity_symmetry():
    rng = np.random.default_rng(20260816)
    for i in range(100):
        w = random_window(rng)
        flipped = EventWindow(
            w.geometry, w.x, w.y, w.t, (-w.p).astype(np.int8), w.window_start, w.window_end
        )
        kind = (KIND_TIMESTAMP, KIND_EVENT_COUNT)[i % 2]
        a = encode_window(w, kind, POLARITY_MERGED).pixels
        b = encode_window(flipped, kind, POLARITY_MERGED).pixels
        assert np.array_equal(b[..., 0], a[..., 1])
        assert np.array_equal(b[..., 1], a[..., 0])
        assert not b[..., 2].any() and not a[..., 2].any()


@criterion(4, "windows partition every stream; count = ceil((span+1)/T)")
def test_criterion_04_window_partition():
    rng = np.random.default_rng(20260817)
    for s in range(100):
        n = int(rng.integers(1, 2000))
        t = np.sort(rng.integers(0, 500_000, size=n)).astype(np.int64)
        stream = EventStream(
            SensorGeometry(32, 32),
            rng.integers(0, 32, size=n).astype(np.int32),
            rng.integers(0, 32, size=n).astype(np.int32),
            t,
            rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
        )
        T = (80_000, 20_000, 50_000)[s % 3]
        windows = segment(stream, WindowConfig(T))
        span = stream.t_last - stream.t_first
        assert len(windows) == math.ceil((span + 1) / T)
        assert sum(len(w.t) for w in windows) == n  # each event in exactly one window
        assert np.array_equal(np.concatenate([w.t for w in windows]), stream.t)
        for k, w in enumerate(windows):
            assert w.window_start == stream.t_first + k * T
            assert w.window_end == w.window_start + T
            if len(w.t):
                assert w.t.min() >= w.window_start and w.t.max() < w.window_end


@criterion(5, "N frames yield max(0, N-2) chunks of consecutive indices")
def test_criterion_05_chunking():
    for n in (0, 1, 2, 3, 4, 5, 50):
        frames = [
            EncodedFrame(
                np.zeros((2, 2, 3), dtype=np.uint8), KIND_TIMESTAMP, POLARITY_MERGED,
                i * 10, (i + 1) * 10, False,
            )
            for i in range(n)
        ]
        chunks = make_chunks(frames)
        assert len(chunks) == max(0, n - 2)
        for j, chunk in enumerate(chunks):
            assert chunk.frame_indices == (j, j + 1, j + 2)


@criterion(6, "average pooling matches summation oracle; label is order-invariant")
def test_criterion_06_aggregation():
    rng = np.random.default_rng(20260818)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, 20))
        raw = rng.random((n, k)) * rng.choice([1.0, 100.0, 1e-6])
        result = temporal_average_pool([ScoreVector(raw[i], i) for i in range(n)])
        expected = raw.sum(axis=0) / n
        np.testing.assert_allclose(result.mean_scores, expected, rtol=1e-12, atol=0.0)
        assert result.label == int(np.argmax(expected))

    vectors = [ScoreVector(rng.random(7), i) for i in range(12)]
    base = temporal_average_pool(vectors).label
    for _ in range(100):
        perm = rng.permutation(len(vectors))
        assert temporal_average_pool([vectors[i] for i in perm]).label == base


@criterion(7, "3.5C log ramp fires exactly at {2000/7, 4000/7, 6000/7} us")
def test_criterion_07_simulator_analytic():
    c = 0.2
    ramp = np.exp(np.array([[[0.0]], [[3.5 * c]]]))
    out = simulate(ramp, [0, 1000], SimConfig(contrast_threshold=c))
    expected_t = [int(math.floor(k * 2000 / 7 + 0.5)) for k in (1, 2, 3)]
    assert out.t.tolist() == expected_t
    assert out.p.tolist() == [1, 1, 1]

    flat = simulate(np.full((4, 3, 3), 5.0), [0, 100, 200, 300], SimConfig(c))
    assert len(flat) == 0

    rng = np.random.default_rng(20260819)
    scene = rng.uniform(0.5, 2.0, size=(5, 4, 4))
    times = [0, 700, 1400, 2100, 2800]
    assert simulate(scene * math.pi, times, SimConfig(c)) == simulate(scene, times, SimConfig(c))


@criterion(8, "simulate -> encode(count, merged) matches analytic per-pixel counts")
def test_criterion_08_closed_loop(tmp_path):
    rng = np.random.default_rng(20260820)
    for scene_index in range(20):
        n_frames = int(rng.integers(3, 7))
        height, width = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        log_frames = np.cumsum(rng.normal(0.0, 0.5, size=(n_frames, height, width)), axis=0)
        times = np.cumsum(rng.integers(200, 1200, size=n_frames)) - 200
        c = float(rng.uniform(0.1, 0.3))
        refractory = (0, 150)[scene_index % 2]

        stream = simulate(np.exp(log_frames), times, SimConfig(c, refractory))
        events = []
        for yy in range(height):
            for xx in range(width):
                for t, p in oracle_sensor_walk(log_frames[:, yy, xx], times, c, refractory):
                    events.append((t, xx, yy, p))
        assert len(stream) == len(events)
        if not events:
            continue

        T = 300
        frames = encode_stream(stream, WindowConfig(T), KIND_EVENT_COUNT, POLARITY_MERGED)
        t_first = min(e[0] for e in events)
        span = max(e[0] for e in events) - t_first
        assert len(frames) == (span + T) // T

        windows = segment(stream, WindowConfig(T))
        for k, frame in enumerate(frames):
            pos = np.zeros((height, width))
            neg = np.zeros((height, width))
            for t, xx, yy, p in events:
                if t_first + k * T <= t < t_first + (k + 1) * T:
                    (pos if p == 1 else neg)[yy, xx] += 1
            # raw per-pixel counts, channel by channel
            assert np.array_equal(event_count_field(windows[k], 1), pos)
            assert np.array_equal(event_count_field(windows[k], -1), neg)
            # and the full encoded frame, including joint quantization
            v_max = max(pos.max(), neg.max())
            assert np.array_equal(frame.pixels[..., 0], oracle_quantize(pos, v_max))
            assert np.array_equal(frame.pixels[..., 1], oracle_quantize(neg, v_max))
            assert frame.empty == (not pos.any() and not neg.any())

    # the same loop holds through the CLI plumbing
    values = rng.integers(0, 256, size=(4, 3, 3), dtype=np.uint8)
    tensor_path = tmp_path / "scene.evfr"
    tensor_path.write_bytes(
        write_frame_tensor(
            [
                EncodedFrame(values[i][:, :, None], None, None, i * 1000, (i + 1) * 1000, False)
                for i in range(4)
            ]
        )
    )
    stream_path = tmp_path / "events.txt"
    frames_path = tmp_path / "frames.evfr"
    assert cli_main(["simulate", str(tensor_path), str(stream_path), "--threshold", "0.2"]) == 0
    assert (
        cli_main(
            ["encode", str(stream_path), str(frames_path), "--geometry", "3x3",
             "--kind", "count", "--window-us", "500"]
        )
        == 0
    )
    stream = parse_text(stream_path.read_text(), SensorGeometry(3, 3))
    expected_frames = encode_stream(stream, WindowConfig(500), KIND_EVENT_COUNT, POLARITY_MERGED)
    read_back = read_frame_tensor(frames_path.read_bytes()).frames
    assert len(read_back) == len(expected_frames) > 0
    for got, expected in zip(read_back, expected_frames):
        assert np.array_equal(got.pixels, expected.pixels)


@criterion(9, "text, AEDAT 2.0 golden and frame-tensor files survive round-trips")
def test_criterion_09_format_round_trips():
    # text: parse(write(s)) == s and write(parse(text)) == text
    rng = np.random.default_rng(20260821)
    n = 500
    stream = EventStream(
        DVS128_GEOMETRY,
        rng.integers(0, 128, size=n).astype(np.int32),
        rng.integers(0, 128, size=n).astype(np.int32),
        np.sort(rng.integers(0, 10_000_000, size=n)).astype(np.int64),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
    )
    text = write_text(stream)
    assert parse_text(text, DVS128_GEOMETRY) == stream
    assert write_text(parse_text(text, DVS128_GEOMETRY)) == text

    # AEDAT 2.0: ten hand-packed records, one 32-bit timestamp wrap
    records = [
        (1, 2, 1, 100),
        (5, 0, -1, 150),
        (127, 127, 1, 200),
        (0, 0, -1, 200),
        (64, 32, 1, 300),
        (3, 9, -1, 4_294_967_000),
        (8, 8, 1, 4_294_967_290),
        (9, 7, -1, 5),  # raw counter wrapped here
        (10, 6, 1, 50),
        (11, 5, -1, 100),
    ]
    blob = b"#!AER-DAT2.0\r\n# synthetic capture for format validation\r\n"
    for x, y, p, ticks in records:
        addr = (y << 8) | (x << 1) | (0 if p == 1 else 1)
        blob += struct.pack(">II", addr, ticks)
    decoded, stats = parse_aedat2_stats(blob, DVS128_LAYOUT, DVS128_GEOMETRY)
    wrap = 1 << 32
    expected = [
        (1, 2, 100, 1),
        (5, 0, 150, -1),
        (127, 127, 200, 1),
        (0, 0, 200, -1),
        (64, 32, 300, 1),
        (3, 9, 4_294_967_000, -1),
        (8, 8, 4_294_967_290, 1),
        (9, 7, 5 + wrap, -1),
        (10, 6, 50 + wrap, 1),
        (11, 5, 100 + wrap, -1),
    ]
    assert events(decoded) == expected
    assert stats.records == 10
    assert stats.timestamp_wraps == 1

    # frame tensor: read(write(frames)) preserves everything the file stores
    frames = [
        EncodedFrame(
            rng.integers(0, 256, size=(5, 6, 3), dtype=np.uint8),
            KIND_EVENT_COUNT, POLARITY_MERGED, i * 80_000, (i + 1) * 80_000, i == 2,
        )
        for i in range(4)
    ]
    data = write_frame_tensor(frames)
    back = read_frame_tensor(data)
    assert write_frame_tensor(back.frames) == data
    for orig, got in zip(frames, back.frames):
        assert np.array_equal(got.pixels, orig.pixels)
        assert (got.window_start, got.window_end, got.empty) == (
            orig.window_start, orig.window_end, orig.empty,
        )


@criterion(10, "encode stage throughput on a 50M-event synthetic stream")
def test_criterion_10_throughput():
    n = 50_000_000
    rng = np.random.default_rng(20260822)
    stream = EventStream(
        DVS128_GEOMETRY,
        rng.integers(0, 128, size=n, dtype=np.int32),
        rng.integers(0, 128, size=n, dtype=np.int32),
        np.arange(n, dtype=np.int64),  # one event per microsecond, presorted
        (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1),
    )
    config = WindowConfig(80_000)
    # a small run first keeps one-time first-call costs (lazy imports, first
    # allocations) out of the measured window
    encode_stream(_head(stream, 1000), config)
    start = time.perf_counter()
    frames = encode_stream(stream, config, KIND_TIMESTAMP, POLARITY_MERGED)
    elapsed = time.perf_counter() - start
    rate = n / elapsed
    assert len(frames) == math.ceil(n / 80_000)
    assert rate >= 1e6, f"{rate:.0f} events/s is below the 1M/s floor"
    return f"{rate / 1e6:.1f}M events/s, {BACKEND} backend, soft target 5M/s"


def _head(stream, n):
    return EventStream(stream.geometry, stream.x[:n], stream.y[:n], stream.t[:n], stream.p[:n])
