"""Segmentation of an event stream into consecutive fixed-length time windows.

Windows are half-open [start, start + T) and anchored at the first event's
timestamp, so output does not depend on the device clock origin. Interior
windows that happen to contain no events are still emitted (flagged empty)
to keep the frame cadence uniform for downstream chunking.

A stream read in blocks is tiled by ``_pieces``, which holds only the open
window's events; ``encoders.encode_blocks``, and with it ``encode_stream``,
encodes its windows and folds one with more events than its frame has cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .formats import MAX_FRAME_COUNT
from .options import DEFAULT_WINDOW_US, SensorGeometry, as_int
from .stream import MAX_TIMESTAMP_US, EventStream


@dataclass(frozen=True)
class WindowConfig:
    """Accumulation window length T in microseconds (default 80 ms)."""

    window_length_us: int = DEFAULT_WINDOW_US

    def __post_init__(self):
        length = as_int(self.window_length_us, "window length")
        if length <= 0:
            raise ValueError(f"window length must be positive, got {length}")
        object.__setattr__(self, "window_length_us", length)


class EventWindow:
    """Events of one time window [window_start, window_end), column-wise.

    t_begin/t_end are the earliest/latest event timestamps inside the window
    over all pixels; they are None when the window is empty.
    """

    __slots__ = ("geometry", "x", "y", "t", "p", "window_start", "window_end")

    def __init__(self, geometry: SensorGeometry, x, y, t, p, window_start: int, window_end: int):
        self.geometry = geometry
        self.x = x
        self.y = y
        self.t = t
        self.p = p
        self.window_start = window_start
        self.window_end = window_end

    def __len__(self) -> int:
        return len(self.t)

    @property
    def empty(self) -> bool:
        return len(self.t) == 0

    @property
    def t_begin(self) -> int | None:
        return None if self.empty else int(self.t[0])

    @property
    def t_end(self) -> int | None:
        return None if self.empty else int(self.t[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventWindow):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and self.window_start == other.window_start
            and self.window_end == other.window_end
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.p, other.p)
        )

    def __repr__(self) -> str:
        return (
            f"EventWindow([{self.window_start}, {self.window_end}), "
            f"{len(self)} events{', empty' if self.empty else ''})"
        )


def segment(stream: EventStream, config: WindowConfig = WindowConfig()) -> list[EventWindow]:
    """Tile the stream's time span into consecutive windows of length T.

    Window k covers [t_first + k*T, t_first + (k+1)*T); every event lands in
    exactly one window and the window count is ceil((t_last - t_first + 1)/T).
    An empty stream yields no windows. Raises ValueError, before the first
    window, when the last window's end would not fit in int64 or there would
    be more windows than a frame tensor holds (``MAX_FRAME_COUNT``).
    """
    T = config.window_length_us
    # A single block's window is one piece, so no window needs a join.
    return [EventWindow(g, *piece, start, start + T) for g, start, piece in _pieces([stream], T)]


def _pieces(blocks: Iterable[EventStream], T: int) -> Iterator[tuple]:
    """The blocks cut at window edges, as (geometry, start, piece) in time order.

    A piece is a block's (x, y, t, p) column slices, possibly empty, and
    belongs to the open window. When start is not None, the piece is the
    window's last and closes it as [start, start + T); an empty window is
    one empty piece. Window ends are searched for at most one per event, and
    the empty windows of a longer gap are counted out one by one, so memory
    does not grow with the time span.
    """
    t_first = tail = None
    k = 0  # index of the open window
    for block in blocks:
        if len(block) == 0:
            continue
        if t_first is None:
            t_first, geometry = block.t_first, block.geometry
        else:
            yield geometry, None, tail  # the open window goes on in this block
        t_last = block.t_last
        k_last = (t_last - t_first) // T
        # Python ints cannot wrap; the int64 edges (and the frame tensor) can.
        # So the end of the block's last window, and the window count, are
        # checked before its first window.
        last_edge = t_first + (k_last + 1) * T
        if last_edge > MAX_TIMESTAMP_US:
            raise ValueError(
                f"last window would end at {last_edge}, beyond the int64 range "
                f"(events {t_first}..{t_last}, window {T} us)"
            )
        if k_last + 1 > MAX_FRAME_COUNT:
            raise ValueError(
                f"stream would need {k_last + 1} windows, more than the {MAX_FRAME_COUNT} "
                f"frames of a frame tensor (events {t_first}..{t_last}, window {T} us)"
            )
        lo = 0
        while k < k_last:
            # The ends of the next windows, searched for at once; none is
            # beyond t_last, so int64 holds them. There are no more of them
            # than events left in the block, so a time gap costs no memory.
            n = min(k_last - k, len(block) - lo)
            edges = t_first + T * np.arange(k + 1, k + n + 1, dtype=np.int64)
            for hi in block.t.searchsorted(edges).tolist():
                piece = (block.x[lo:hi], block.y[lo:hi], block.t[lo:hi], block.p[lo:hi])
                yield geometry, t_first + k * T, piece
                lo, k = hi, k + 1
            if k < k_last:
                # The windows before the next event's are empty: count them out.
                k_next = (int(block.t[lo]) - t_first) // T
                no_events = (block.x[:0], block.y[:0], block.t[:0], block.p[:0])
                for j in range(k, k_next):
                    yield geometry, t_first + j * T, no_events
                k = k_next
        # The open window's part of the block. When it is not all of it, it
        # is copied, so that nothing here holds the block while the next is read.
        tail = (block.x[lo:], block.y[lo:], block.t[lo:], block.p[lo:])
        if lo:
            tail = tuple(column.copy() for column in tail)
        block = piece = no_events = None
    if t_first is not None:
        yield geometry, t_first + k * T, tail


def _close(geometry: SensorGeometry, pieces: list[tuple], start: int, T: int) -> EventWindow:
    """The window [start, start + T) made of the given column pieces."""
    columns = pieces[0] if len(pieces) == 1 else [np.concatenate(c) for c in zip(*pieces)]
    return EventWindow(geometry, *columns, start, start + T)
