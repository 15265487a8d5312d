"""Rasterizers that turn one event window into a frame representation.

Two scalar fields are supported, optionally restricted to one polarity:

* timestamp field: each active pixel holds the normalized time of its latest
  event, (t_n - t_begin) / (t_end - t_begin), with t_begin/t_end taken over
  all events in the window regardless of the polarity filter. Values lie in
  [0, 1]; pixels without events are 0. When every event in the window shares
  one timestamp the denominator degenerates and active pixels are set to 1.0
  (the end of activity).
* event count field: a per-pixel event histogram.

``encode_window`` renders a window in polarity mode ``merged`` (positive
events in channel 0, negative in channel 1, channel 2 zero, of a 3-channel
8-bit frame) or ``ignore`` (1 channel, all events pooled). Quantization maps
v to round(255 * v / v_max) with round-half-up; v_max is fixed at 1.0 for
the timestamp kind and is the joint maximum over both polarity fields for
the count kind, so each frame is self-normalized.

Frames and fields come from one scatter: every event of the window gets its
raster cell and a value. A count cell is assigned, since every event of a
cell carries the same count; a timestamp cell keeps the largest value it
receives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .windowing import EventWindow

KIND_TIMESTAMP = "timestamp"
KIND_EVENT_COUNT = "event_count"
KINDS = (KIND_TIMESTAMP, KIND_EVENT_COUNT)

POLARITY_MERGED = "merged"
POLARITY_IGNORE = "ignore"


@dataclass(eq=False)
class EncodedFrame:
    """An 8-bit (H, W, C) raster produced from one event window.

    kind and polarity_mode are None on frames read back from a frame-tensor
    file, which stores only geometry, window bounds and pixels.
    """

    pixels: np.ndarray
    kind: str | None
    polarity_mode: str | None
    window_start: int
    window_end: int
    empty: bool

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EncodedFrame):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.polarity_mode == other.polarity_mode
            and self.window_start == other.window_start
            and self.window_end == other.window_end
            and self.empty == other.empty
            and np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:
        return (
            f"EncodedFrame({self.width}x{self.height}x{self.channels}, {self.kind}, "
            f"{self.polarity_mode}, [{self.window_start}, {self.window_end}))"
        )


def _scatter(window: EventWindow, kind: str, channels: int):
    """Each event's cell in the row-major (H, W, channels) raster, its value, and v_max.

    With more than one channel, negative events go to channel 1 and positive
    ones to channel 0. A timestamp value is the event's normalized time (1.0
    when all events share one timestamp), so the per-cell maximum is the
    pixel's latest event; a count value is the event's own (int64) cell
    count, the same for every event of a cell. v_max is 1.0 for timestamps
    and the largest count (the joint maximum over channels) for counts.
    """
    cell = window.y.astype(np.int64) * window.geometry.width + window.x
    if channels > 1:
        cell = cell * channels + (window.p < 0)
    if kind == KIND_EVENT_COUNT:
        value = np.bincount(cell)[cell]
        return cell, value, float(value.max())
    t_begin, t_end = window.t_begin, window.t_end
    if t_end == t_begin:
        return cell, np.ones(len(cell)), 1.0
    return cell, (window.t - t_begin) / (t_end - t_begin), 1.0


def _put(flat: np.ndarray, cell: np.ndarray, value: np.ndarray, kind: str) -> None:
    """Write each event's value into its cell: counts by assignment, timestamps by maximum."""
    if kind == KIND_EVENT_COUNT:
        flat[cell] = value
    else:
        np.maximum.at(flat, cell, value)


def _field(window: EventWindow, kind: str, polarity: int | None) -> np.ndarray:
    g = window.geometry
    channels = 1 if polarity is None else 2
    raster = np.zeros((g.height, g.width, channels))
    if not window.empty:
        cell, value, _ = _scatter(window, kind, channels)
        _put(raster.reshape(-1), cell, value, kind)
    return raster[..., 1 if polarity == -1 else 0]


def timestamp_field(window: EventWindow, polarity: int | None = None) -> np.ndarray:
    """Normalized latest-event-time per pixel as an (H, W) float64 array.

    ``polarity`` restricts which events update a pixel (+1, -1, or None for
    both); the normalization bounds always come from the whole window.
    """
    return _field(window, KIND_TIMESTAMP, polarity)


def event_count_field(window: EventWindow, polarity: int | None = None) -> np.ndarray:
    """Per-pixel event count as an (H, W) float64 array."""
    return _field(window, KIND_EVENT_COUNT, polarity)


def quantize(field: np.ndarray, v_max: float) -> np.ndarray:
    """Map non-negative field values to uint8 as round(255 * v / v_max), half up.

    The order of operations matters: multiplying by a precomputed
    255.0 / v_max can land a hair below exact halves (e.g. 25 of 50 must
    give 127.5 -> 128), so scale before dividing. Integer counts promote
    exactly; a v_max of 1.0 skips the division, which would change nothing.
    """
    if v_max <= 0.0:
        return np.zeros(field.shape, dtype=np.uint8)
    scaled = np.multiply(field, 255.0)
    if v_max != 1.0:
        scaled /= v_max
    scaled += 0.5
    return np.floor(scaled).astype(np.uint8)


_CHANNELS = {POLARITY_MERGED: 3, POLARITY_IGNORE: 1}


def encode_window(window: EventWindow, kind: str, polarity_mode: str) -> EncodedFrame:
    """Encode one window as a 3-channel (merged) or 1-channel (ignore) frame.

    Each event's quantized value is scattered into its cell as in the
    fields. That equals quantizing the field, because quantize is monotone
    and every value is >= 0, so untouched cells stay at the field's 0.
    """
    if polarity_mode not in _CHANNELS:
        raise ValueError(f"unknown polarity mode {polarity_mode!r}")
    if kind not in KINDS:
        raise ValueError(f"unknown frame kind {kind!r}, expected one of {KINDS}")
    g = window.geometry
    pixels = np.zeros((g.height, g.width, _CHANNELS[polarity_mode]), dtype=np.uint8)
    if not window.empty:
        cell, value, v_max = _scatter(window, kind, pixels.shape[2])
        _put(pixels.reshape(-1), cell, quantize(value, v_max), kind)
    return EncodedFrame(
        pixels, kind, polarity_mode, window.window_start, window.window_end, window.empty
    )
