"""Plain-Python loops that the vectorized paths are tested against."""

import math

import numpy as np

from evframes.encoders import encode_window
from evframes.ingest import FormatError
from evframes.stream import MAX_TIMESTAMP_US, EventStream
from evframes.windowing import segment


def count_field_loop(x, y, width, height):
    """Events per pixel."""
    out = np.zeros((height, width), dtype=np.int64)
    for i in range(x.shape[0]):
        out[y[i], x[i]] += 1
    return out


def encode_per_window(stream, config, kind, mode):
    """Every window of ``segment`` scattered by ``encode_window``, none folded."""
    return [encode_window(w, kind, mode) for w in segment(stream, config)]


def last_timestamp_loop(x, y, t, width, height):
    """Latest event time per pixel; -1 marks pixels with no events."""
    out = np.full((height, width), -1, dtype=np.int64)
    for i in range(x.shape[0]):
        if t[i] > out[y[i], x[i]]:
            out[y[i], x[i]] = t[i]
    return out


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
