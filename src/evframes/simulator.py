"""Synthetic event generation from an intensity-frame sequence.

Models an ideal contrast-change sensor: per pixel, log intensity is
interpolated linearly between consecutive frames, and an event fires every
time it moves a full contrast threshold away from the pixel's reference
level. The reference steps by the threshold at each crossing, so a large
jump emits a burst of events along the interpolated ramp. An optional
refractory period suppresses (but never re-times) crossings that land too
soon after the previous emitted one; the reference level steps either way.

The sensor is stepped one frame interval at a time across all pixels, as
ESIM and v2e do. Between intervals it carries only each pixel's reference
level and the exact time of its last emitted event, so a scene of any
length needs two frames and one interval's events in memory. Crossing times
are computed in exact float microseconds and rounded half-up to integer
microseconds only on output, never to before the interval's first frame.
Events come out in (timestamp, row-major pixel index) order, which makes
the output a valid, deterministically ordered stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .options import SensorGeometry, as_int
from .stream import EventStream

# Crossing times are float64, which holds every integer microsecond up to 2**53.
_MAX_TIME_US = 2**53


@dataclass(frozen=True)
class SimConfig:
    """Sensor model parameters.

    contrast_threshold is the log-intensity step between events (unitless,
    must be positive and finite). refractory_period_us suppresses events
    closer than this to the previous emitted event at the same pixel; zero
    disables it.
    """

    contrast_threshold: float = 0.2
    refractory_period_us: int = 0

    def __post_init__(self):
        if not 0 < self.contrast_threshold < math.inf:
            raise ValueError("contrast_threshold must be positive and finite")
        period = as_int(self.refractory_period_us, "refractory_period_us")
        if period < 0:
            raise ValueError("refractory_period_us must be non-negative")
        object.__setattr__(self, "refractory_period_us", period)


def simulate(intensities, timestamps_us, config: SimConfig = SimConfig()) -> EventStream:
    """Generate the event stream an ideal sensor would emit for a scene.

    intensities is an (N, H, W) array of finite, strictly positive linear
    intensities; timestamps_us gives the N frame times in microseconds,
    strictly increasing and within 0..2**53. At least two frames are
    required.
    """
    frames = np.asarray(intensities, dtype=np.float64)
    times = np.asarray(timestamps_us, dtype=np.int64)
    if frames.ndim != 3:
        raise ValueError(f"intensities must be (N, H, W), got shape {frames.shape}")
    check_frame_times(times, len(frames))
    if not np.all(np.isfinite(frames) & (frames > 0)):
        raise ValueError("intensities must be finite and strictly positive (log is taken)")
    blocks = list(simulate_intervals((np.log(frame) for frame in frames), times, config))
    return EventStream.concat(blocks[0].geometry, blocks)


def check_frame_times(times: np.ndarray, n_frames: int) -> None:
    """Raise ValueError unless the int64 times are n_frames >= 2 strictly increasing
    frame times within 0..2**53 us."""
    if n_frames < 2:
        raise ValueError("need at least two frames to interpolate between")
    if times.shape != (n_frames,):
        raise ValueError(f"expected {n_frames} timestamps, got {times.shape}")
    # Checked first, so that the differences below cannot wrap.
    if times.min() < 0 or times.max() > _MAX_TIME_US:
        raise ValueError(f"frame timestamps must lie in 0..{_MAX_TIME_US} us")
    if np.any(np.diff(times) <= 0):
        raise ValueError("frame timestamps must be strictly increasing")


def simulate_intervals(
    log_frames: Iterable[np.ndarray], times: np.ndarray, config: SimConfig
) -> Iterator[EventStream]:
    """The events of a scene as one block per frame interval, in output order.

    log_frames yields the (H, W) log intensities at the frame times, which
    :func:`check_frame_times` has passed. Joined, the blocks are the stream
    :func:`simulate` returns. A block holds the events of its interval that
    round to before the interval's end; the rest are held back and ordered
    with the next interval's, which can round to the same microsecond.
    """
    threshold = float(config.contrast_threshold)
    refractory_us = float(config.refractory_period_us)
    frames = iter(log_frames)
    l0 = next(frames)
    height, width = l0.shape
    geometry = SensorGeometry(width, height)
    l0 = l0.ravel()
    ref = l0.copy()
    last = np.full(l0.size, -np.inf)  # each pixel's last emitted exact time
    held_t = held_pix = np.empty(0, dtype=np.int64)
    held_p = np.empty(0, dtype=np.int8)
    for f, l1 in enumerate(frames):
        l1 = l1.ravel()
        direction = np.sign(l1 - l0)
        # direction == 0 makes the product 0, so static pixels count 0 crossings.
        # A count past float64 is inf, refused with the others int64 cannot hold.
        with np.errstate(over="ignore"):
            n_cross = np.maximum(np.floor(direction * (l1 - ref) / threshold), 0)
        if n_cross.sum() >= 2.0**63:
            raise ValueError(
                f"frames {f} to {f + 1}: more threshold crossings than int64 can count"
            )
        n_cross = n_cross.astype(np.int64)
        active = np.flatnonzero(n_cross)
        reps = n_cross[active]
        # Active pixel i owns crossings starts[i] .. starts[i] + reps[i] - 1,
        # k = 1..reps[i], in time order.
        starts = np.cumsum(reps) - reps
        pix = np.repeat(active, reps)
        k = np.arange(len(pix), dtype=np.int64) - np.repeat(starts, reps) + 1
        sgn = direction[pix]
        level = ref[pix] + sgn * k * threshold
        t0 = float(times[f])
        dt = float(times[f + 1] - times[f])
        t_exact = t0 + (level - l0[pix]) * (dt / (l1[pix] - l0[pix]))
        ref = ref + direction * n_cross * threshold
        l0 = l1

        keep = np.ones(len(pix), dtype=bool)
        # The refractory gate: the r-th crossing of every active pixel at once,
        # against the pixel's last emitted time, for r = 0, 1, ...
        for r in range(int(reps.max(initial=0)) if refractory_us > 0 else 0):
            live = reps > r
            active, starts, reps = active[live], starts[live], reps[live]
            i = starts + r
            ok = ~(t_exact[i] - last[active] < refractory_us)
            keep[i[~ok]] = False
            last[active[ok]] = t_exact[i[ok]]

        # When a level lies within rounding of l0, cancellation in level - l0
        # can put its crossing before t0, by up to dt times the ratio of that
        # rounding to l1 - l0. It rounds to t0, so that no event precedes its
        # interval and the blocks join in order.
        t = np.maximum(np.floor(t_exact[keep] + 0.5), t0).astype(np.int64)
        t = np.concatenate((held_t, t))
        pix = np.concatenate((held_pix, pix[keep]))
        p = np.concatenate((held_p, sgn[keep].astype(np.int8)))
        order = np.lexsort((pix, t))  # stable, so held events stay first among ties
        t, pix, p = t[order], pix[order], p[order]
        cut = len(t) if f + 2 == len(times) else np.searchsorted(t, times[f + 1])
        held_t, held_pix, held_p = t[cut:], pix[cut:], p[cut:]
        yield EventStream(geometry, pix[:cut] % width, pix[:cut] // width, t[:cut], p[:cut])
