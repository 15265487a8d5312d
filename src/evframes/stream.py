"""Core event data model: sensor geometry, single events, and event streams.

An event stream is stored column-wise (struct-of-arrays) so that millions of
events can be filtered, windowed and rasterized with numpy at full speed.
Timestamps are microseconds in int64; polarity is +1/-1 in int8.

Streams are treated as immutable after construction; no operation here or in
the rest of the package mutates its inputs. :func:`truncate_blocks` cuts a
stream read in blocks, in two passes; :func:`truncate_by_ratio` is its join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np


# Largest timestamp (us) an int64 column, and the frame tensor's window edges, can hold.
MAX_TIMESTAMP_US = int(np.iinfo(np.int64).max)


class Event(NamedTuple):
    """One sensor spike: pixel column/row, timestamp (us), polarity (+1/-1)."""

    x: int
    y: int
    t: int
    p: int


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel-array dimensions of the sensor that produced a stream."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.width}x{self.height}")


DVS128_GEOMETRY = SensorGeometry(128, 128)
DAVIS240C_GEOMETRY = SensorGeometry(240, 180)


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_stream, tied to an event index."""

    index: int
    message: str

    def __str__(self) -> str:
        return f"event {self.index}: {self.message}"


class EventStream:
    """A finite, time-ordered sequence of events plus the sensor geometry.

    Columns are kept as read-only numpy arrays (x, y: int32; t: int64 us;
    p: int8 in {+1, -1}). Construction does not enforce the invariants
    (sorted timestamps, in-bounds coordinates, legal polarity); use
    :func:`validate_stream` to check them explicitly.
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
    def empty(cls, geometry: SensorGeometry) -> "EventStream":
        return cls(geometry, [], [], [], [])

    @classmethod
    def from_events(cls, geometry: SensorGeometry, events: Iterable[tuple]) -> "EventStream":
        """Build a stream from an iterable of (x, y, t, p) tuples or Events."""
        ev = list(events)
        if not ev:
            return cls.empty(geometry)
        arr = np.asarray(ev, dtype=np.int64)
        return cls(geometry, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])

    @classmethod
    def concat(cls, geometry: SensorGeometry, parts: list["EventStream"]) -> "EventStream":
        """Join consecutive pieces of one stream; a single piece is returned as is."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty(geometry)
        columns = zip(*((s.x, s.y, s.t, s.p) for s in parts))
        return cls(geometry, *(np.concatenate(c) for c in columns))

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.x[i]), int(self.y[i]), int(self.t[i]), int(self.p[i]))

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

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
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    arr.setflags(write=False)
    return arr


def validate_stream(stream: EventStream) -> list[Violation]:
    """Check every stream invariant and return all violations found.

    Violations are data, not errors: an empty list means the stream is valid.
    Checked per event: 0 <= x < width, 0 <= y < height, p in {+1, -1},
    t >= 0, and t non-decreasing relative to the previous event.
    """
    out: list[Violation] = []
    g = stream.geometry

    for i in np.flatnonzero((stream.x < 0) | (stream.x >= g.width)):
        out.append(Violation(int(i), f"x out of bounds: {stream.x[i]} not in [0, {g.width})"))
    for i in np.flatnonzero((stream.y < 0) | (stream.y >= g.height)):
        out.append(Violation(int(i), f"y out of bounds: {stream.y[i]} not in [0, {g.height})"))
    for i in np.flatnonzero((stream.p != 1) & (stream.p != -1)):
        out.append(Violation(int(i), f"illegal polarity {stream.p[i]}, expected +1 or -1"))
    for i in np.flatnonzero(stream.t < 0):
        out.append(Violation(int(i), f"negative timestamp {stream.t[i]}"))
    if len(stream) > 1:
        for j in np.flatnonzero(np.diff(stream.t) < 0):
            i = int(j) + 1
            out.append(
                Violation(i, f"non-monotone timestamp: {stream.t[i]} after {stream.t[i - 1]}")
            )
    out.sort(key=lambda v: v.index)
    return out


def truncate_by_ratio(stream: EventStream, ratio: float) -> EventStream:
    """Keep the prefix of events observed within the first `ratio` of the recording.

    The cutoff is t_first + ratio * (t_last - t_first), inclusive, so ratio=1
    keeps every event. Geometry is unchanged.
    """
    return EventStream.concat(stream.geometry, list(truncate_blocks([stream], ratio)))


def truncate_blocks(blocks: Iterable[EventStream], ratio: float) -> Iterator[EventStream]:
    """Truncate a stream given as re-iterable blocks, as :func:`truncate_by_ratio` does.

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
    if t_first is None:
        raise ValueError("cannot truncate empty stream")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    # Offsets t - t_first against ratio*span keep the comparison exact at ratio=1.
    cutoff = ratio * float(t_last - t_first)

    def heads() -> Iterator[EventStream]:
        for b in blocks:
            n = int(np.searchsorted(b.t - t_first, cutoff, side="right"))
            yield EventStream(b.geometry, b.x[:n], b.y[:n], b.t[:n], b.p[:n])
            if n < len(b):
                return

    return heads()
