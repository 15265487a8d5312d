"""Core event data model: columnar event streams of a sensor geometry.

An event stream is stored column-wise (struct-of-arrays) so that millions of
events can be filtered, windowed and rasterized with numpy at full speed.
Timestamps are microseconds in int64; polarity is +1/-1 in int8.

Streams are treated as immutable after construction; no operation here or in
the rest of the package mutates its inputs. :func:`truncate_blocks` cuts a
stream read in blocks, in two passes; :func:`truncate_by_ratio` is its join.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .options import SensorGeometry

# Largest timestamp (us) an int64 column, and the frame tensor's window edges, can hold.
MAX_TIMESTAMP_US = (1 << 63) - 1


class EventStream:
    """A finite, time-ordered sequence of events plus the sensor geometry.

    Columns are kept as read-only 1-D numpy arrays (x, y: int32; t: int64 us;
    p: int8 in {+1, -1}). They may share memory with the arrays passed in,
    which stay writable. Construction does not enforce the invariants
    (sorted timestamps, in-bounds coordinates, legal polarity): the readers
    and the simulator enforce them, and the tests check them
    (``tests/oracles.py``).
    """

    __slots__ = ("geometry", "x", "y", "t", "p")

    def __init__(self, geometry: SensorGeometry, x, y, t, p):
        self.geometry = geometry
        self.x = _column(x, np.int32)
        self.y = _column(y, np.int32)
        self.t = _column(t, np.int64)
        self.p = _column(p, np.int8)
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise ValueError("event columns must have equal length")

    @classmethod
    def concat(cls, geometry: SensorGeometry, parts: list["EventStream"]) -> "EventStream":
        """Join consecutive pieces of one stream; a single piece is returned as is."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls(geometry, [], [], [], [])
        columns = zip(*((s.x, s.y, s.t, s.p) for s in parts))
        return cls(geometry, *(np.concatenate(c) for c in columns))

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.p, other.p)
        )

    def __repr__(self) -> str:
        g = self.geometry
        return f"EventStream({len(self)} events, {g.width}x{g.height})"

    @property
    def t_first(self) -> int:
        if len(self) == 0:
            raise ValueError("empty stream has no first timestamp")
        return int(self.t[0])

    @property
    def t_last(self) -> int:
        if len(self) == 0:
            raise ValueError("empty stream has no last timestamp")
        return int(self.t[-1])


def _column(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).view()  # frozen below, not the caller's array
    if arr.ndim != 1:
        raise ValueError(f"event columns must be one-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def truncate_by_ratio(stream: EventStream, ratio: float) -> EventStream:
    """Keep the prefix of events observed within the first `ratio` of the recording.

    An event is kept when its offset t - t_first is at most
    ratio * float(t_last - t_first), compared in float64, so ratio=1 keeps
    every event. Adding t_first to that product can round it up a tick
    (``ROUNDED_UP`` in tests/test_stream.py). Geometry is unchanged.
    """
    return EventStream.concat(stream.geometry, list(truncate_blocks([stream], ratio)))


def truncate_blocks(blocks: Iterable[EventStream], ratio: float) -> Iterator[EventStream]:
    """Truncate re-iterable blocks by :func:`truncate_by_ratio`'s float64 cutoff on offsets.

    The first pass, made before this returns, finds t_first and t_last and
    raises every error: a one-shot iterator's TypeError, the blocks' own, an
    empty stream's, then a bad ratio's. The returned iterator makes the
    second pass, which stops after the first block that loses an event.
    """
    if iter(blocks) is blocks:
        raise TypeError("truncate_blocks needs re-iterable blocks, not a one-shot iterator")
    t_first = t_last = None
    for block in filter(len, blocks):
        t_first = block.t_first if t_first is None else t_first
        t_last = block.t_last
        block = None  # not held while the next block is read
    if t_first is None:
        raise ValueError("cannot truncate empty stream")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    cutoff = ratio * float(t_last - t_first)

    def heads() -> Iterator[EventStream]:
        for b in blocks:
            n = int(np.searchsorted(b.t - t_first, cutoff, side="right"))
            yield EventStream(b.geometry, b.x[:n], b.y[:n], b.t[:n], b.p[:n])
            if n < len(b):
                return
            b = None

    return heads()
