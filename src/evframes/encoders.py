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
the count kind, so each frame is self-normalized. :func:`encode_blocks`
encodes a stream read in blocks, lazily, one frame per window;
:func:`encode_stream` is its join over one block.

Fields, and frames of windows with no more events than their frame has
cells, come from one scatter: every event gets its raster cell and a value,
each built in one buffer. A count cell is assigned, since every event of a
cell carries the same count; a timestamp cell keeps the largest value it
receives. A denser window folds instead (see :func:`encode_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .stream import EventStream, SensorGeometry
from .windowing import EventWindow, WindowConfig, _close, _pieces

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

    A timestamp value is the event's normalized time (1.0 when all events
    share one timestamp), so the per-cell maximum is the pixel's latest
    event; a count value is the event's own (int64) cell count, the same for
    every event of a cell. v_max is 1.0 for timestamps and the largest count
    (the joint maximum over channels) for counts. Each value array is new,
    so callers may overwrite it.
    """
    cell = _cells(window.geometry, window.x, window.y, window.p, channels)
    if kind == KIND_EVENT_COUNT:
        value = np.bincount(cell)[cell]
        return cell, value, float(value.max())
    return cell, _times(window.t, window.t_begin, window.t_end), 1.0


def _cells(geometry: SensorGeometry, x, y, p, channels: int) -> np.ndarray:
    """Each event's cell in the row-major (H, W, channels) raster, built in one int64 buffer.

    With more than one channel, negative events go to channel 1 and
    positive ones to channel 0.
    """
    cell = y.astype(np.int64)
    cell *= geometry.width
    cell += x
    if channels > 1:
        cell *= channels
        cell += p < 0
    return cell


def _times(t: np.ndarray, t_begin: int, t_end: int) -> np.ndarray:
    """(t - t_begin) / (t_end - t_begin) as a new float64 array; 1.0 when t_end == t_begin."""
    if t_end == t_begin:
        return np.ones(len(t))
    value = np.subtract(t, t_begin)
    # The int64 differences are divided in their own buffer, element by
    # element, into the float64 values: the same 'll->d' loop as `/`.
    return np.true_divide(value, t_end - t_begin, out=value.view(np.float64))


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
    return _quantize_into(np.array(field, dtype=np.float64), v_max)


def _quantize_into(value: np.ndarray, v_max: float) -> np.ndarray:
    """quantize for v_max > 0, computed in the float64 array ``value``, which it overwrites."""
    value *= 255.0
    if v_max != 1.0:
        value /= v_max
    value += 0.5
    return np.floor(value, out=value).astype(np.uint8)


_CHANNELS = {POLARITY_MERGED: 3, POLARITY_IGNORE: 1}


def encode_window(window: EventWindow, kind: str, polarity_mode: str) -> EncodedFrame:
    """Encode one window as a 3-channel (merged) or 1-channel (ignore) frame.

    Each event's quantized value is scattered into its cell as in the
    fields. That equals quantizing the field, because quantize is monotone
    and every value is >= 0, so untouched cells stay at the field's 0.
    """
    _check_modes(kind, polarity_mode)
    g = window.geometry
    pixels = np.zeros((g.height, g.width, _CHANNELS[polarity_mode]), dtype=np.uint8)
    if not window.empty:
        cell, value, v_max = _scatter(window, kind, pixels.shape[2])
        value = _quantize_into(value.astype(np.float64, copy=False), v_max)
        _put(pixels.reshape(-1), cell, value, kind)
    return EncodedFrame(
        pixels, kind, polarity_mode, window.window_start, window.window_end, window.empty
    )


def _check_modes(kind: str, polarity_mode: str) -> None:
    if polarity_mode not in _CHANNELS:
        raise ValueError(f"unknown polarity mode {polarity_mode!r}")
    if kind not in KINDS:
        raise ValueError(f"unknown frame kind {kind!r}, expected one of {KINDS}")


def encode_stream(
    stream: EventStream,
    config: WindowConfig = WindowConfig(),
    kind: str = "timestamp",
    polarity_mode: str = POLARITY_MERGED,
) -> list[EncodedFrame]:
    """:func:`encode_blocks` over one block, in memory; a window denser than its frame folds."""
    return list(encode_blocks([stream], config, kind, polarity_mode))


def encode_blocks(
    blocks: Iterable[EventStream],
    config: WindowConfig = WindowConfig(),
    kind: str = "timestamp",
    polarity_mode: str = POLARITY_MERGED,
) -> Iterator[EncodedFrame]:
    """Lazily encode a stream that arrives as blocks, one frame per window.

    Windows are tiled as :func:`segment_blocks` tiles them. A window is
    kept as block pieces until it holds more events than its frame has
    cells; then its events are folded into one int64 per cell, the latest
    tick (timestamp) or the count (count), and only the active cells are
    quantized when it closes. Memory is thus bounded by a block or two and
    one int64 per frame cell, whatever the window length. The fold gives
    the same pixels: quantize of the normalized time is non-decreasing, so
    a cell's largest quantized value is that of its latest tick, and every
    event of a cell carries the cell's count.
    """
    _check_modes(kind, polarity_mode)
    return _encode_blocks(blocks, config.window_length_us, kind, polarity_mode)


def _encode_blocks(blocks, T: int, kind: str, polarity_mode: str) -> Iterator[EncodedFrame]:
    channels = _CHANNELS[polarity_mode]
    pieces, buffered = [], 0
    fold, folding = None, False
    for geometry, start, piece in _pieces(blocks, T):
        if folding:
            fold.add(*piece)
        else:
            pieces.append(piece)
            buffered += len(piece[2])
            if buffered > geometry.height * geometry.width * channels:
                # One fold per run: fresh pages would fault in again per window.
                fold = fold or _Fold(geometry, kind, channels)
                for columns in pieces:
                    fold.add(*columns)
                pieces, folding = [], True
        if start is not None:
            if folding:
                yield EncodedFrame(fold.pop(), kind, polarity_mode, start, start + T, False)
            else:
                yield encode_window(_close(geometry, pieces, start, T), kind, polarity_mode)
            pieces, buffered, folding = [], 0, False


_NO_TICK = np.iinfo(np.int64).min


class _Fold:
    """A window's events folded into one int64 per frame cell (see :func:`encode_blocks`).

    A cell holds its latest tick (``_NO_TICK`` for none) for timestamps and
    its event count for counts.
    """

    def __init__(self, geometry: SensorGeometry, kind: str, channels: int):
        self.geometry, self.kind, self.channels = geometry, kind, channels
        cells = geometry.height * geometry.width * channels
        self.acc = np.full(cells, _NO_TICK if kind == KIND_TIMESTAMP else 0, dtype=np.int64)
        self.t_begin = self.t_end = None

    def add(self, x, y, t, p) -> None:
        if not len(t):
            return
        cell = _cells(self.geometry, x, y, p, self.channels)
        if self.kind == KIND_TIMESTAMP:
            # numpy does not order repeated-index assignment; the maximum is the latest.
            np.maximum.at(self.acc, cell, t)
        else:
            np.add.at(self.acc, cell, 1)
        if self.t_begin is None:
            self.t_begin = int(t[0])
        self.t_end = int(t[-1])

    def pop(self) -> np.ndarray:
        """The window's (H, W, channels) pixels; the fold is then reset for the next window."""
        g, acc = self.geometry, self.acc
        pixels = np.zeros((g.height, g.width, self.channels), dtype=np.uint8)
        if self.kind == KIND_TIMESTAMP:
            active = np.flatnonzero(acc != _NO_TICK)
            value, v_max = _times(acc[active], self.t_begin, self.t_end), 1.0
            acc.fill(_NO_TICK)
        else:
            active = np.flatnonzero(acc)
            value = acc[active].astype(np.float64)
            v_max = float(value.max())
            acc.fill(0)
        pixels.reshape(-1)[active] = _quantize_into(value, v_max)
        self.t_begin = self.t_end = None
        return pixels
