"""The values the pipeline is configured with, importable without numpy.

Sensor geometries and AEDAT address layouts (``--geometry``, ``--layout``),
frame kinds, polarity modes and their channels (``--kind``, ``--polarity``)
and the default window length (``--window-us``). The modules that use them
import them from here, and only from here, so that the CLI can offer them,
and shape a tensor, without numpy. ``as_int`` is the one rule by which a
configured size, index or period becomes an int.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

KIND_TIMESTAMP = "timestamp"
KIND_EVENT_COUNT = "count"
KINDS = (KIND_TIMESTAMP, KIND_EVENT_COUNT)

POLARITY_MERGED = "merged"
POLARITY_IGNORE = "ignore"
POLARITY_CHANNELS = {POLARITY_MERGED: 3, POLARITY_IGNORE: 1}

DEFAULT_WINDOW_US = 80_000


def as_int(value, what: str) -> int:
    """``value`` as a Python int, which cannot wrap as a numpy scalar does; else a ValueError."""
    try:
        return int(operator.index(value))
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel-array dimensions of the sensor that produced a stream, as Python ints."""

    width: int
    height: int

    def __post_init__(self):
        object.__setattr__(self, "width", as_int(self.width, "geometry width"))
        object.__setattr__(self, "height", as_int(self.height, "geometry height"))
        if self.width < 1 or self.height < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.width}x{self.height}")
        side = (1 << 31) - 1  # the int32 maximum, so that every in-bounds x and y fits its column
        if max(self.width, self.height) > side:
            raise ValueError(
                f"geometry sides must be at most {side}, got {self.width}x{self.height}"
            )


DVS128_GEOMETRY = SensorGeometry(128, 128)
DAVIS240C_GEOMETRY = SensorGeometry(240, 180)


@dataclass(frozen=True)
class AedatLayout:
    """Bit layout of one 32-bit AEDAT 2.0 address word.

    Masks are given right-aligned (applied after shifting), e.g. a 7-bit
    field is mask 0x7F. ``polarity_on_value`` names the raw polarity bit
    value that maps to p=+1; hardware conventions disagree, so it is data.
    ``type_bit``, when set, marks non-DVS records (IMU, special events):
    records with that bit set are skipped and counted, not parsed.
    Timestamps are in ticks of one microsecond, as AEDAT 2.0 records them.
    """

    x_shift: int
    x_mask: int
    y_shift: int
    y_mask: int
    polarity_shift: int
    polarity_on_value: int
    type_bit: int | None = None

    def __post_init__(self):
        if self.polarity_on_value not in (0, 1):
            raise ValueError("polarity_on_value must be 0 or 1")
        fields = [
            ("x", self.x_mask << self.x_shift),
            ("y", self.y_mask << self.y_shift),
            ("polarity", 1 << self.polarity_shift),
        ]
        if self.type_bit is not None:
            fields.append(("type", 1 << self.type_bit))
        for i, (name_a, bits_a) in enumerate(fields):
            if bits_a >> 32:
                raise ValueError(f"{name_a} bit field lies outside the 32-bit address word")
            for name_b, bits_b in fields[i + 1 :]:
                if bits_a & bits_b:
                    raise ValueError(f"{name_a} and {name_b} bit fields overlap")


# x at bits 1-7, y at bits 8-14, polarity at bit 0 with raw 0 -> +1
DVS128_LAYOUT = AedatLayout(
    x_shift=1, x_mask=0x7F, y_shift=8, y_mask=0x7F, polarity_shift=0, polarity_on_value=0
)

# x at bits 12-21, y at bits 22-30, polarity at bit 11 with raw 1 -> +1;
# bit 31 set marks non-DVS packets (IMU etc.), which are skipped.
DAVIS240C_LAYOUT = AedatLayout(
    x_shift=12,
    x_mask=0x3FF,
    y_shift=22,
    y_mask=0x1FF,
    polarity_shift=11,
    polarity_on_value=1,
    type_bit=31,
)
