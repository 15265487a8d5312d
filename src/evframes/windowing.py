"""Segmentation of an event stream into consecutive fixed-length time windows.

Windows are half-open [start, start + T) and anchored at the first event's
timestamp, so output does not depend on the device clock origin. Interior
windows that happen to contain no events are still emitted (flagged empty)
to keep the frame cadence uniform for downstream chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stream import MAX_TIMESTAMP_US, EventStream, SensorGeometry

DEFAULT_WINDOW_US = 80_000


@dataclass(frozen=True)
class WindowConfig:
    """Accumulation window length T in microseconds (default 80 ms)."""

    window_length_us: int = DEFAULT_WINDOW_US

    def __post_init__(self):
        if self.window_length_us <= 0:
            raise ValueError(f"window length must be positive, got {self.window_length_us}")


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
    An empty stream yields no windows. Raises ValueError when the last
    window's end would not fit in int64.
    """
    if len(stream) == 0:
        return []
    T = config.window_length_us
    t_first = stream.t_first
    span = stream.t_last - t_first
    n_windows = (span + T) // T  # == ceil((span + 1) / T)
    # Python ints cannot wrap; the int64 edges below (and the frame tensor) can.
    last_edge = t_first + n_windows * T
    if last_edge > MAX_TIMESTAMP_US:
        raise ValueError(
            f"last window would end at {last_edge}, beyond the int64 range "
            f"(events {t_first}..{stream.t_last}, window {T} us)"
        )

    edges = t_first + T * np.arange(n_windows + 1, dtype=np.int64)
    cuts = np.searchsorted(stream.t, edges, side="left")
    windows = []
    for k in range(n_windows):
        lo, hi = int(cuts[k]), int(cuts[k + 1])
        windows.append(
            EventWindow(
                stream.geometry,
                stream.x[lo:hi],
                stream.y[lo:hi],
                stream.t[lo:hi],
                stream.p[lo:hi],
                int(edges[k]),
                int(edges[k + 1]),
            )
        )
    return windows
