"""Synthetic event generation from an intensity-frame sequence.

Models an ideal contrast-change sensor: per pixel, log intensity is
interpolated linearly between consecutive frames, and an event fires every
time it moves a full contrast threshold away from the pixel's reference
level. The reference steps by the threshold at each crossing, so a large
jump emits a burst of events along the interpolated ramp. An optional
refractory period suppresses (but never re-times) crossings that land too
soon after the previous emitted one; the reference level steps either way.

Crossings are generated with numpy, one frame interval at a time across all
pixels. Because reference stepping does not depend on suppression, the
refractory period is applied afterwards as a separate gate over the
generated crossings. Crossing times are computed in exact float
microseconds and rounded half-up to integer microseconds only on output.
Events are returned in (timestamp, row-major pixel index) order, which
makes the output a valid, deterministically ordered stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stream import EventStream, SensorGeometry

# Crossing times are float64, which holds every integer microsecond up to 2**53.
_MAX_TIME_US = 2**53


@dataclass(frozen=True)
class SimConfig:
    """Sensor model parameters.

    contrast_threshold is the log-intensity step between events (unitless,
    must be positive). refractory_period_us suppresses events closer than
    this to the previous emitted event at the same pixel; zero disables it.
    """

    contrast_threshold: float = 0.2
    refractory_period_us: int = 0

    def __post_init__(self):
        if not self.contrast_threshold > 0:
            raise ValueError("contrast_threshold must be positive")
        if self.refractory_period_us < 0:
            raise ValueError("refractory_period_us must be non-negative")


def simulate(intensities, timestamps_us, config: SimConfig = SimConfig()) -> EventStream:
    """Generate the event stream an ideal sensor would emit for a scene.

    intensities is an (N, H, W) array of strictly positive linear
    intensities; timestamps_us gives the N frame times in microseconds,
    strictly increasing and within 0..2**53. At least two frames are
    required.
    """
    frames = np.asarray(intensities, dtype=np.float64)
    times = np.asarray(timestamps_us, dtype=np.int64)
    if frames.ndim != 3:
        raise ValueError(f"intensities must be (N, H, W), got shape {frames.shape}")
    n_frames, height, width = frames.shape
    if n_frames < 2:
        raise ValueError("need at least two frames to interpolate between")
    if times.shape != (n_frames,):
        raise ValueError(f"expected {n_frames} timestamps, got {times.shape}")
    # Checked first, so that the differences below cannot wrap.
    if times.min() < 0 or times.max() > _MAX_TIME_US:
        raise ValueError(f"frame timestamps must lie in 0..{_MAX_TIME_US} us")
    if np.any(np.diff(times) <= 0):
        raise ValueError("frame timestamps must be strictly increasing")
    if np.any(frames <= 0):
        raise ValueError("intensities must be strictly positive (log is taken)")

    t, pix, p = _simulate_crossings(
        np.log(frames), times, float(config.contrast_threshold),
        float(config.refractory_period_us),
    )
    # Crossings come out interval by interval, pixel-major within an
    # interval, so a pixel's later crossing can precede another's earlier one.
    order = np.lexsort((pix, t))
    pix = pix[order]
    return EventStream(SensorGeometry(width, height), pix % width, pix // width, t[order], p[order])


def _simulate_crossings(log_frames, times_us, threshold, refractory_us):
    """All emitted crossings of an (N, H, W) log-intensity stack.

    Returns rounded times, row-major pixel indices and polarities, ordered
    by interval and, within an interval, by pixel and then crossing.
    """
    n_frames, height, width = log_frames.shape
    flat = log_frames.reshape(n_frames, height * width)
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
        return e, e, e.astype(np.int8)

    t = np.concatenate(t_parts)
    pix = np.concatenate(pix_parts)
    p = np.concatenate(p_parts)
    if refractory_us > 0:
        keep = _refractory_keep(pix, np.concatenate(exact_parts), refractory_us)
        t, pix, p = t[keep], pix[keep], p[keep]
    return t, pix, p


def _refractory_keep(pix, t_exact, refractory_us):
    """Mask of the crossings the refractory period lets through.

    A pixel's first crossing is always emitted; each later one is emitted
    unless it lands less than refractory_us after the pixel's last emitted
    crossing. The crossings are chronological within each pixel, so after a
    stable sort by pixel the r-th crossing of every pixel can be gated at
    once, for r = 1, 2, ..., against a vector of last emitted times.
    """
    order = np.argsort(pix, kind="stable")
    by_pixel = pix[order]
    first = np.flatnonzero(np.r_[True, by_pixel[1:] != by_pixel[:-1]])
    count = np.diff(np.r_[first, len(pix)])
    last = t_exact[order[first]]
    keep = np.ones(len(pix), dtype=bool)
    for r in range(1, int(count.max())):
        live = count > r
        first, count, last = first[live], count[live], last[live]
        i = order[first + r]
        ok = ~(t_exact[i] - last < refractory_us)
        keep[i[~ok]] = False
        last = np.where(ok, t_exact[i], last)
    return keep
