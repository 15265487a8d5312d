"""The simulator's crossing generator, compiled with numba when available.

It exists twice: a plain-Python loop compiled with ``@njit`` (nogil,
cached) and a vectorized pure-numpy fallback. The dispatched name
``simulate_crossings`` points at the numba build unless numba is missing or
``EVFRAMES_NUMBA`` is set to ``0``/``false``/``off``/``no`` (any case). Both
paths produce bit-identical results; ``benchmarks/bench_backends.py``
compares their speed.

The per-pixel count and latest-timestamp loops are the test oracles for the
encoders' vectorized fields; nothing in the package calls them.
"""

from __future__ import annotations

import math
import os

import numpy as np

_flag = os.environ.get("EVFRAMES_NUMBA", "").strip().lower()
if _flag in {"0", "false", "off", "no"}:
    NUMBA_ENABLED = False
else:
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# Per-pixel event count (2D histogram)
# ---------------------------------------------------------------------------

def _count_field_loop(x, y, width, height):
    out = np.zeros((height, width), dtype=np.int64)
    for i in range(x.shape[0]):
        out[y[i], x[i]] += 1
    return out


# ---------------------------------------------------------------------------
# Per-pixel latest timestamp
# ---------------------------------------------------------------------------

def _last_timestamp_loop(x, y, t, width, height):
    # -1 marks pixels with no events; timestamps are non-negative.
    out = np.full((height, width), -1, dtype=np.int64)
    for i in range(x.shape[0]):
        if t[i] > out[y[i], x[i]]:
            out[y[i], x[i]] = t[i]
    return out


# ---------------------------------------------------------------------------
# DVS pixel model: threshold crossings of linearly interpolated log intensity
# ---------------------------------------------------------------------------
#
# Per pixel, a reference level starts at the first frame's log intensity and
# steps by +-C at every crossing, whether or not the refractory period
# suppresses the emitted event. Crossing times are linearly interpolated,
# rounded to integer microseconds as floor(t + 0.5).

def _simulate_crossings_loop(log_frames, times_us, threshold, refractory_us):
    n_frames, height, width = log_frames.shape
    n_pix = height * width

    # Pass 1: count emitted events per pixel.
    counts = np.zeros(n_pix, dtype=np.int64)
    for pix in range(n_pix):
        yy = pix // width
        xx = pix - yy * width
        ref = log_frames[0, yy, xx]
        last_emit = -1.0e308
        n_emit = 0
        for f in range(n_frames - 1):
            l0 = log_frames[f, yy, xx]
            l1 = log_frames[f + 1, yy, xx]
            if l1 == l0:
                continue
            direction = 1.0 if l1 > l0 else -1.0
            n_cross = int(math.floor(direction * (l1 - ref) / threshold))
            if n_cross <= 0:
                continue
            t0 = float(times_us[f])
            dt = float(times_us[f + 1] - times_us[f])
            inv_slope = dt / (l1 - l0)
            for k in range(1, n_cross + 1):
                level = ref + direction * k * threshold
                t_cross = t0 + (level - l0) * inv_slope
                if refractory_us <= 0 or t_cross - last_emit >= refractory_us:
                    n_emit += 1
                    last_emit = t_cross
            ref += direction * n_cross * threshold
        counts[pix] = n_emit

    starts = np.zeros(n_pix + 1, dtype=np.int64)
    for pix in range(n_pix):
        starts[pix + 1] = starts[pix] + counts[pix]
    total = starts[n_pix]

    out_t = np.empty(total, dtype=np.int64)
    out_x = np.empty(total, dtype=np.int32)
    out_y = np.empty(total, dtype=np.int32)
    out_p = np.empty(total, dtype=np.int8)

    # Pass 2: identical walk, filling per-pixel slots in chronological order.
    for pix in range(n_pix):
        yy = pix // width
        xx = pix - yy * width
        ref = log_frames[0, yy, xx]
        last_emit = -1.0e308
        pos = starts[pix]
        for f in range(n_frames - 1):
            l0 = log_frames[f, yy, xx]
            l1 = log_frames[f + 1, yy, xx]
            if l1 == l0:
                continue
            direction = 1.0 if l1 > l0 else -1.0
            n_cross = int(math.floor(direction * (l1 - ref) / threshold))
            if n_cross <= 0:
                continue
            t0 = float(times_us[f])
            dt = float(times_us[f + 1] - times_us[f])
            inv_slope = dt / (l1 - l0)
            for k in range(1, n_cross + 1):
                level = ref + direction * k * threshold
                t_cross = t0 + (level - l0) * inv_slope
                if refractory_us <= 0 or t_cross - last_emit >= refractory_us:
                    out_t[pos] = int(math.floor(t_cross + 0.5))
                    out_x[pos] = xx
                    out_y[pos] = yy
                    out_p[pos] = 1 if direction > 0 else -1
                    pos += 1
                    last_emit = t_cross
            ref += direction * n_cross * threshold

    return out_t, out_x, out_y, out_p


def simulate_crossings_numpy(log_frames, times_us, threshold, refractory_us):
    """Vectorized fallback for the crossing generator.

    Crossings are generated interval by interval across all pixels at once.
    Reference-level stepping is independent of refractory suppression, so
    gating can run as a separate pass over the generated crossings.
    """
    n_frames, height, width = log_frames.shape
    n_pix = height * width
    flat = log_frames.reshape(n_frames, n_pix)
    ref = flat[0].copy()

    t_parts, pix_parts, p_parts, exact_parts = [], [], [], []
    for f in range(n_frames - 1):
        l0 = flat[f]
        l1 = flat[f + 1]
        direction = np.sign(l1 - l0)
        # direction == 0 makes the product 0, so static pixels count 0 crossings
        n_cross = np.maximum(np.floor(direction * (l1 - ref) / threshold), 0).astype(np.int64)
        total = int(n_cross.sum())
        if total:
            active = np.flatnonzero(n_cross)
            reps = n_cross[active]
            pix = np.repeat(active, reps)
            # k = 1..n_cross per pixel, restarting at each active pixel
            offsets = np.concatenate(([0], np.cumsum(reps)[:-1]))
            k = np.arange(total, dtype=np.int64) - np.repeat(offsets, reps) + 1
            sgn = direction[pix]
            level = ref[pix] + sgn * k * threshold
            t0 = float(times_us[f])
            dt = float(times_us[f + 1] - times_us[f])
            t_exact = t0 + (level - l0[pix]) * (dt / (l1[pix] - l0[pix]))
            t_parts.append(np.floor(t_exact + 0.5).astype(np.int64))
            pix_parts.append(pix)
            p_parts.append(sgn.astype(np.int8))
            exact_parts.append(t_exact)
        ref = ref + direction * n_cross * threshold

    if not t_parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.astype(np.int32), e.astype(np.int32), e.astype(np.int8)

    t = np.concatenate(t_parts)
    pix = np.concatenate(pix_parts)
    p = np.concatenate(p_parts)
    t_exact = np.concatenate(exact_parts)

    if refractory_us > 0:
        keep = np.ones(len(t), dtype=bool)
        # Crossings are already chronological per pixel (interval-major order).
        order = np.argsort(pix, kind="stable")
        last_emit: dict[int, float] = {}
        for i in order:
            px = int(pix[i])
            prev = last_emit.get(px)
            if prev is not None and t_exact[i] - prev < refractory_us:
                keep[i] = False
            else:
                last_emit[px] = float(t_exact[i])
        t, pix, p = t[keep], pix[keep], p[keep]

    x = (pix % width).astype(np.int32)
    y = (pix // width).astype(np.int32)
    return t, x, y, p


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    _simulate_jit = njit(cache=True, nogil=True)(_simulate_crossings_loop)
    simulate_crossings = _simulate_jit
    BACKEND = "numba"
else:
    simulate_crossings = simulate_crossings_numpy
    BACKEND = "numpy"
