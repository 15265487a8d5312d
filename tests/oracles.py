"""Plain-Python loops that the vectorized paths are tested against."""

import math

import numpy as np


def count_field_loop(x, y, width, height):
    """Events per pixel."""
    out = np.zeros((height, width), dtype=np.int64)
    for i in range(x.shape[0]):
        out[y[i], x[i]] += 1
    return out


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
                out.append((int(math.floor(t_cross + 0.5)), 1 if direction > 0 else -1))
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
