"""Seeded input generators for the pipeline benchmark.

Every generator takes the seed and returns ground truth (the DVS events as
columns) together with the bytes or arrays the program will receive. The
same seed gives the same inputs; sizes are fixed per configuration so that
runs with different seeds do the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DVS128_SIDE = 128
DAVIS_WIDTH, DAVIS_HEIGHT = 240, 180

HEADER = (
    b"#!AER-DAT2.0\r\n"
    b"# This is a raw AE data file - do not edit\r\n"
    b"# Data format is int32 address, int32 timestamp (8 bytes total), "
    b"repeated for each event\r\n"
    b"# Timestamps tick is 1 us\r\n"
)


@dataclass
class Events:
    """Ground-truth DVS events, time-ordered, as the parser should return them."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def aedat(addr: np.ndarray, ticks: np.ndarray) -> bytes:
    """An AEDAT 2.0 file: the header, then big-endian (address, tick) records."""
    records = np.empty((len(addr), 2), dtype=">u4")
    records[:, 0] = addr
    records[:, 1] = ticks & 0xFFFFFFFF
    return HEADER + records.tobytes()


def dvs128_address(x, y, p) -> np.ndarray:
    """DVS-128 address words: x at bits 1-7, y at bits 8-14, raw polarity 0 means p=+1."""
    return (np.asarray(x, np.int64) << 1) | (np.asarray(y, np.int64) << 8) | (np.asarray(p) == -1)


def long_recording(seed: int, n_events: int, span_us: int) -> tuple[Events, bytes]:
    """A DVS-128 recording with bursty activity whose tick counter wraps once.

    Activity alternates between bursts of 0.2-2 s and pauses of 50 ms to
    1.2 s, so a share of 80 ms windows is empty. An object circles the
    sensor; events on its leading edge are positive, on the trailing edge
    negative, and 15% of events are uniform background noise.
    """
    rng = np.random.default_rng([seed, 1])
    bin_us = 10_000
    n_bins = span_us // bin_us
    rate = np.zeros(n_bins)
    pos = 0
    while pos < n_bins:
        on = int(rng.integers(20, 200))
        rate[pos : pos + on] = rng.gamma(4.0, 0.25)
        pos += on + int(rng.integers(5, 120))
    rate[0] = rate[-1] = max(rate[0], rate[-1], 1.0)  # activity spans the whole recording
    counts = rng.multinomial(n_events, rate / rate.sum())
    # Stratified times inside each bin: the i-th of c events falls in the
    # i-th of c equal slices, so the column is sorted as generated.
    first = np.cumsum(counts) - counts
    rank = np.arange(n_events) - np.repeat(first, counts)
    per_bin = np.repeat(counts, counts)
    t = np.repeat(np.arange(n_bins, dtype=np.int64) * bin_us, counts)
    t += ((rank + rng.random(n_events)) * (bin_us / per_bin)).astype(np.int64)
    del rank, per_bin

    # The object's centre and heading change slowly, so they are computed
    # per bin; each event picks a point of a ring around the centre.
    bins = np.arange(n_bins) * bin_us
    w1, w2 = 2 * np.pi / rng.uniform(3e6, 6e6), 2 * np.pi / rng.uniform(4e6, 8e6)
    ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
    cx = np.repeat(64 + 40 * np.sin(w1 * bins + ph1), counts)
    cy = np.repeat(64 + 40 * np.sin(w2 * bins + ph2), counts)
    heading = np.arctan2(w2 * np.cos(w2 * bins + ph2), w1 * np.cos(w1 * bins + ph1))
    ring_angle = rng.uniform(0, 2 * np.pi, size=4096)
    ring_radius = rng.normal(12.0, 2.0, size=4096)
    j = rng.integers(0, 4096, size=n_events)
    cx += (ring_radius * np.cos(ring_angle))[j]
    cy += (ring_radius * np.sin(ring_angle))[j]
    x = np.clip(np.rint(cx), 0, DVS128_SIDE - 1).astype(np.int64)
    y = np.clip(np.rint(cy), 0, DVS128_SIDE - 1).astype(np.int64)
    del cx, cy
    leading = np.repeat(np.cos(heading), counts) * np.cos(ring_angle)[j]
    leading += np.repeat(np.sin(heading), counts) * np.sin(ring_angle)[j]
    p = np.where(leading > 0, 1, -1).astype(np.int8)
    del leading, j
    noise = rng.random(n_events) < 0.15
    n_noise = int(noise.sum())
    x[noise] = rng.integers(0, DVS128_SIDE, size=n_noise)
    y[noise] = rng.integers(0, DVS128_SIDE, size=n_noise)
    p[noise] = rng.choice(np.array([-1, 1], dtype=np.int8), size=n_noise)

    # Start the 32-bit counter 15-45 s before it wraps.
    t += (1 << 32) - int(rng.integers(span_us // 4, 3 * span_us // 4))
    return Events(x, y, t, p), aedat(dvs128_address(x, y, p), t)


def gesture_clip(seed: int, index: int, n_events: int) -> tuple[Events, bytes]:
    """A DAVIS240C clip of a hand-like blob sweeping an arc.

    The clip lasts 1-1.5 s with one pause of up to 50 ms, and about 10% of
    its records are non-DVS (type bit 31 set). Event counts vary by +-10%
    around ``n_events``.
    """
    rng = np.random.default_rng([seed, 2, index])
    n_dvs = int(rng.integers(n_events * 9 // 10, n_events * 11 // 10 + 1))
    n_records = round(n_dvs / 0.9)
    span = int(rng.integers(1_000_000, 1_500_001))
    pause_at, pause = int(rng.integers(span // 4, 3 * span // 4)), int(rng.integers(0, 50_001))
    t = np.sort(rng.integers(0, span - pause, size=n_records))
    t[t >= pause_at] += pause

    is_dvs = np.zeros(n_records, dtype=bool)
    is_dvs[rng.choice(n_records, size=n_dvs, replace=False)] = True
    td = t[is_dvs]
    phase = rng.uniform(0, 2 * np.pi)
    sweep = rng.uniform(1.0, 2.5) * np.pi * td / span + phase
    cx = DAVIS_WIDTH / 2 + rng.uniform(40, 80) * np.cos(sweep)
    cy = DAVIS_HEIGHT / 2 + rng.uniform(30, 60) * np.sin(sweep)
    x = np.clip(np.rint(cx + rng.normal(0, 10, n_dvs)), 0, DAVIS_WIDTH - 1).astype(np.int64)
    y = np.clip(np.rint(cy + rng.normal(0, 10, n_dvs)), 0, DAVIS_HEIGHT - 1).astype(np.int64)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), size=n_dvs)

    t0 = int(rng.integers(0, 1 << 31))
    addr = (1 << 31) | rng.integers(0, 1 << 31, size=n_records)
    # DAVIS240C: x at bits 12-21, y at bits 22-30, raw polarity 1 means p=+1.
    addr[is_dvs] = (y << 22) | (x << 12) | ((p == 1).astype(np.int64) << 11)
    return Events(x, y, td + t0, p), aedat(addr, t + t0)


def intensity_pixels(frames: np.ndarray) -> np.ndarray:
    """Intensity frames quantized to the (N, H, W, 1) uint8 frames `evframes simulate` reads."""
    return np.clip(frames * 60.0, 0, 255).astype(np.uint8)[..., None]


def scene(seed: int, index: int, side: int, n_frames: int) -> np.ndarray:
    """Intensity frames (N, side, side) of a drifting grating and a bright disk.

    The grating gives a steady crossing rate everywhere; the disk's sharp
    edge fires several crossings per pixel within one frame interval, so a
    refractory period of a few milliseconds suppresses some of them.
    """
    rng = np.random.default_rng([seed, 3, index])
    k = np.arange(n_frames)[:, None, None]
    yy, xx = np.mgrid[0:side, 0:side]
    angle, phase = rng.uniform(0, 2 * np.pi, size=2)
    freq = 2 * np.pi * 3 / side
    grating = np.sin(freq * (xx * np.cos(angle) + yy * np.sin(angle)) - 0.15 * k + phase)
    start = rng.uniform(0.2 * side, 0.8 * side, size=2)
    heading = rng.uniform(0, 2 * np.pi)
    step = 0.6 * side / n_frames
    dx = start[0] + step * k * np.cos(heading) - xx
    dy = start[1] + step * k * np.sin(heading) - yy
    disk = (dx**2 + dy**2) < (0.15 * side) ** 2
    return np.exp(0.8 * grating + 1.5 * disk)
