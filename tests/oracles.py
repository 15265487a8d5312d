"""The suite's one statement of each reference: plain-Python loops the vectorized paths are
tested against, the stream invariant checker, and the per-event and per-block views the tests
read streams by. Only the acceptance criteria keep their own, so that each stands alone."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from evframes.encoders import (
    KIND_EVENT_COUNT, KIND_TIMESTAMP, POLARITY_MERGED, encode_window, quantize
)
from evframes.ingest import FormatError
from evframes.stream import MAX_TIMESTAMP_US, EventStream
from evframes.windowing import segment


def events(stream):
    """A stream's or window's events as a list of (x, y, t, p) int tuples."""
    return list(zip(stream.x.tolist(), stream.y.tolist(), stream.t.tolist(), stream.p.tolist()))


def stream_of(geometry, tuples):
    """A stream built from an iterable of (x, y, t, p) tuples."""
    ev = list(tuples)
    if not ev:
        return EventStream(geometry, [], [], [], [])
    arr = np.asarray(ev, dtype=np.int64)
    return EventStream(geometry, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def split(stream, cuts):
    """The stream as consecutive blocks, cut before each event index in the sorted cuts;
    a repeated cut, or one at 0 or len(stream), makes an empty block."""
    bounds = [0, *cuts, len(stream)]
    return [
        EventStream(stream.geometry, stream.x[a:b], stream.y[a:b], stream.t[a:b], stream.p[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_stream, tied to an event index."""

    index: int
    message: str

    def __str__(self) -> str:
        return f"event {self.index}: {self.message}"


def validate_stream(stream: EventStream) -> list[Violation]:
    """Check every stream invariant and return all violations found.

    Violations are data, not errors: an empty list means the stream is valid.
    Checked per event: 0 <= x < width, 0 <= y < height, p in {+1, -1},
    t >= 0, and t non-decreasing relative to the previous event.
    """
    out: list[Violation] = []
    g = stream.geometry

    for i in np.flatnonzero((stream.x < 0) | (stream.x >= g.width)):
        out.append(Violation(int(i), f"x out of bounds: {stream.x[i]} not in [0, {g.width})"))
    for i in np.flatnonzero((stream.y < 0) | (stream.y >= g.height)):
        out.append(Violation(int(i), f"y out of bounds: {stream.y[i]} not in [0, {g.height})"))
    for i in np.flatnonzero((stream.p != 1) & (stream.p != -1)):
        out.append(Violation(int(i), f"illegal polarity {stream.p[i]}, expected +1 or -1"))
    for i in np.flatnonzero(stream.t < 0):
        out.append(Violation(int(i), f"negative timestamp {stream.t[i]}"))
    if len(stream) > 1:
        for j in np.flatnonzero(np.diff(stream.t) < 0):
            i = int(j) + 1
            out.append(
                Violation(i, f"non-monotone timestamp: {stream.t[i]} after {stream.t[i - 1]}")
            )
    out.sort(key=lambda v: v.index)
    return out


def encode_per_window(stream, config, kind, mode):
    """Every window of ``segment`` scattered by ``encode_window``, none folded."""
    return [encode_window(w, kind, mode) for w in segment(stream, config)]


def loop_field(window, kind, polarity=None):
    """A window's (H, W) float64 field, one event at a time, as the README defines it.

    count: a pixel's events. timestamp: its latest event time t_n as (t_n - t_begin) /
    (t_end - t_begin) over the whole window, 1.0 if t_end == t_begin. polarity +1 or -1
    keeps that sign only. The quotient is float64's, of the differences rounded to float64
    as numpy divides int64, so that past 2**53 us of span, where exact division of the
    ints differs by an ulp, the library is held to the arithmetic it does.
    """
    g = window.geometry
    field = np.zeros((g.height, g.width))
    latest = {}
    for x, y, t, p in events(window):
        if polarity is not None and p != polarity:
            continue
        if kind == KIND_EVENT_COUNT:
            field[y, x] += 1
        else:
            latest[y, x] = max(t, latest.get((y, x), t))
    if latest:
        t_begin, span = window.t_begin, window.t_end - window.t_begin
        for (y, x), t in latest.items():
            field[y, x] = float(t - t_begin) / float(span) if span else 1.0
    return field


def loop_frame(window, kind, polarity_mode):
    """A window's uint8 pixels from loop fields: a channel per polarity, one shared scale."""
    polarities = (1, -1) if polarity_mode == POLARITY_MERGED else (None,)
    fields = [loop_field(window, kind, p) for p in polarities]
    v_max = 1.0 if kind == KIND_TIMESTAMP else max(float(f.max()) for f in fields)
    g = window.geometry
    pixels = np.zeros((g.height, g.width, 3 if polarity_mode == POLARITY_MERGED else 1), np.uint8)
    for c, field in enumerate(fields):
        pixels[..., c] = quantize(field, v_max)
    return pixels


def quantize_exact(field, v_max):
    """round(255 * v / v_max), half up, in exact rationals; zeros if v_max <= 0."""
    values = np.asarray(field, dtype=np.float64)
    if v_max <= 0:
        return np.zeros(values.shape, np.uint8)
    half = Fraction(1, 2)
    exact = [math.floor(255 * Fraction(v) / Fraction(v_max) + half) for v in values.flat]
    return np.array(exact, np.uint8).reshape(values.shape)


def scalar_pixel_events(levels, times, threshold, refractory_us=0.0):
    """Reference generator for one pixel, written as a direct scalar walk.

    levels are log intensities at the given frame times. Returns a list of
    (rounded_t_us, polarity) in chronological order.
    """
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
                # No event rounds to before its interval's first frame.
                t_out = max(int(math.floor(t_cross + 0.5)), times[f])
                out.append((t_out, 1 if direction > 0 else -1))
                last_emit = t_cross
        ref += direction * n_cross * threshold
    return out


def scene_events(log_frames, times, threshold, refractory_us=0.0):
    """Every pixel's scalar walk over an (N, H, W) log stack, as (t, x, y, p) tuples."""
    _, height, width = log_frames.shape
    return [
        (t, x, y, p)
        for y in range(height)
        for x in range(width)
        for t, p in scalar_pixel_events(
            log_frames[:, y, x].tolist(), times.tolist(), threshold, refractory_us
        )
    ]


def parse_text_whole(text, geometry):
    """The ``t x y p`` text parsed whole, line by line; the reference for TextReader."""
    ts, xs, ys, ps = [], [], [], []
    prev_t = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if any(0xD800 <= ord(c) <= 0xDFFF for c in line):  # lone surrogates: bytes not UTF-8
            raise FormatError(f"line {lineno}: not valid UTF-8")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.replace(",", " ").split()
        if len(parts) != 4:
            raise FormatError(f"line {lineno}: expected 4 fields 't x y p', got {len(parts)}")
        try:
            t, x, y, p = (int(v) for v in parts)
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field in {stripped!r}") from None
        if p == 0:
            p = -1
        if p not in (1, -1):
            raise FormatError(f"line {lineno}: polarity must be 1, -1 or 0, got {p}")
        if t < 0:
            raise FormatError(f"line {lineno}: negative timestamp {t}")
        if t > MAX_TIMESTAMP_US:
            raise FormatError(f"line {lineno}: timestamp {t} beyond the int64 range")
        if not (0 <= x < geometry.width and 0 <= y < geometry.height):
            raise FormatError(
                f"line {lineno}: coordinate ({x}, {y}) outside "
                f"{geometry.width}x{geometry.height} geometry"
            )
        if prev_t is not None and t < prev_t:
            raise FormatError(f"line {lineno}: timestamp moves backward ({t} after {prev_t})")
        prev_t = t
        ts.append(t)
        xs.append(x)
        ys.append(y)
        ps.append(p)
    return EventStream(geometry, xs, ys, ts, ps)


def temporal_average_pool_numpy(vectors):
    """The pooling rule in numpy arrays, the reference for ``temporal_average_pool``.

    Returns (float64 class means, label). Input checks are tested separately.
    """
    ordered = sorted(vectors, key=lambda v: v.chunk_index)
    k = len(ordered[0].scores)
    total = np.zeros(k, dtype=np.float64)
    with np.errstate(over="ignore"):
        for v in ordered:
            total += v.scores
    mean = total / len(ordered)
    over = ~np.isfinite(mean)  # the scores are finite, so only the sum overflowed
    if over.any():
        # Scaled by each class's largest magnitude, the scores sum to at
        # most n in magnitude, so neither the sum nor the mean overflows.
        scores = np.array([v.scores[over] for v in ordered])
        scale = np.abs(scores).max(axis=0)
        mean[over] = (scores / scale).sum(axis=0) / len(ordered) * scale
    label = int(np.argmax(mean))  # argmax takes the lowest index on ties
    return mean, label
