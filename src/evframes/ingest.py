"""Readers and writers for event streams: AEDAT 2.0 binary and plain text.

AEDAT 2.0 layout: zero or more header lines, each a line of text starting
with ``#`` (``_read_header`` tells them from records that start with a
``#`` byte), followed by 8-byte records of a 4-byte big-endian address word
and a 4-byte big-endian unsigned timestamp in ticks. Which address bits hold
x, y and polarity varies between sensors and recorder versions, so the bit
layout is explicit configuration (:class:`AedatLayout`) with documented
defaults for the DVS-128 and DAViS240C conventions.

The 32-bit tick counter wraps after ~71 minutes; wraps are detected (raw
timestamp dropping by more than 2^31) and corrected by adding 2^32 ticks per
wrap, so output timestamps are monotone int64 microseconds.

AEDAT input is read in blocks of ``_BLOCK_RECORDS`` records by
:class:`AedatReader`, so memory does not grow with the file. The previous
record's tick and the wrap count carry across blocks, and error positions
(record index, byte offset) count from the start of the file. The checks and
their order are those of a whole-file pass: header, then trailing partial
record (known from the file size), then backward ticks anywhere in the file,
then coordinates; a bad coordinate is therefore reported only once every
tick has been checked. :func:`parse_aedat2_stats` reads bytes through the
same reader and joins the blocks.

Text format: UTF-8, one event per line as ``t x y p`` (whitespace or
commas), ``#`` comment lines skipped, polarity accepted as 1/-1/0 with 0
read as -1.
Text is read in blocks of ``_BLOCK_RECORDS`` events by :class:`TextReader`,
in bounded memory; the previous timestamp and the line number carry across
blocks. :func:`parse_text` reads a string through the same reader.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from .stream import MAX_TIMESTAMP_US, EventStream, SensorGeometry

_WRAP_STEP = 1 << 32
_WRAP_JUMP = 1 << 31

# C0 control characters other than tab, newline and CR
_CONTROL = re.compile(rb"[\x00-\x08\x0b\x0c\x0e-\x1f]")

# Records AedatReader decodes at a time (512 KiB of input), and events
# TextReader parses at a time. Larger blocks cost more memory and ran no faster.
_BLOCK_RECORDS = 1 << 16


class FormatError(ValueError):
    """Malformed input data; the message carries the position of the defect."""


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


@dataclass(frozen=True)
class ParseStats:
    """Bookkeeping from one AEDAT parse, for reporting alongside the stream."""

    header_lines: int
    records: int
    events: int
    skipped_non_dvs: int
    timestamp_wraps: int


def parse_aedat2(data: bytes, layout: AedatLayout, geometry: SensorGeometry) -> EventStream:
    """Parse AEDAT 2.0 bytes into an EventStream (see module docstring)."""
    stream, _ = parse_aedat2_stats(data, layout, geometry)
    return stream


def parse_aedat2_stats(
    data: bytes, layout: AedatLayout, geometry: SensorGeometry
) -> tuple[EventStream, ParseStats]:
    """Parse AEDAT 2.0 bytes, also returning parse statistics."""
    reader = AedatReader(io.BytesIO(data), layout, geometry)
    return EventStream.concat(geometry, list(reader)), reader.stats


class AedatReader:
    """Decode an AEDAT 2.0 file block by block (see module docstring).

    ``f`` is a seekable binary file object positioned at the start of the
    file. Construction reads the header and checks that the body holds
    whole records; each iteration decodes the body from its start and
    yields one EventStream per block of up to ``_BLOCK_RECORDS`` records
    that holds DVS events. ``stats`` counts the latest iteration and is
    complete once it has finished.
    """

    def __init__(self, f: BinaryIO, layout: AedatLayout, geometry: SensorGeometry):
        self._f = f
        self.layout = layout
        self.geometry = geometry
        self.header_lines = _read_header(f)
        self._body_start = f.tell()
        self.records, extra = divmod(f.seek(0, io.SEEK_END) - self._body_start, 8)
        f.seek(self._body_start)
        if extra:
            raise FormatError(
                f"trailing partial record: {extra} byte(s) at byte offset "
                f"{self._body_start + self.records * 8}"
            )
        self.events = self.skipped_non_dvs = self.timestamp_wraps = 0

    @property
    def stats(self) -> ParseStats:
        return ParseStats(
            self.header_lines, self.records, self.events, self.skipped_non_dvs,
            self.timestamp_wraps,
        )

    def __iter__(self) -> Iterator[EventStream]:
        layout, g = self.layout, self.geometry
        self._f.seek(self._body_start)
        self.events = self.skipped_non_dvs = self.timestamp_wraps = 0
        # Carried across blocks: the previous record's raw and unwrapped tick,
        # and the first bad coordinate. A bad coordinate is reported only at
        # the end, because a backward tick anywhere in the file takes
        # precedence; the blocks after it are still read for their ticks.
        last_raw = last_tick = None
        bad_coordinate = None
        for base in range(0, self.records, _BLOCK_RECORDS):
            n = min(_BLOCK_RECORDS, self.records - base)
            buf = self._f.read(8 * n)
            if len(buf) != 8 * n:
                raise FormatError(f"record {base + len(buf) // 8}: file ended while reading")
            words = np.frombuffer(buf, dtype=">u4").reshape(n, 2)

            # The tick counter is global to the file: wraps and backward steps
            # are found over all records, before non-DVS records are dropped.
            # Both are decreasing ticks, which are rare, so they are found with
            # one compare and told apart afterwards.
            raw = words[:, 1].astype(np.int64)
            down = np.flatnonzero(raw[1:] < raw[:-1]) + 1
            before = raw[down - 1]
            if last_raw is not None and raw[0] < last_raw:
                down, before = np.r_[0, down], np.r_[last_raw, before]
            wrapped = raw[down] - before < -_WRAP_JUMP
            wraps = down[wrapped]
            last_raw = int(raw[-1])
            ticks = raw  # a copy of the file's words, offset in place
            if self.timestamp_wraps:
                ticks += self.timestamp_wraps * _WRAP_STEP
            if wraps.size:
                ticks += np.cumsum(np.bincount(wraps, minlength=n)) * _WRAP_STEP
                self.timestamp_wraps += wraps.size
            backward = down[~wrapped]
            if backward.size:
                i = int(backward[0])
                raise FormatError(
                    f"record {base + i}: timestamp moves backward "
                    f"({ticks[i]} after {ticks[i - 1] if i else last_tick}) "
                    "and is not a 32-bit wrap"
                )
            last_tick = ticks[-1]
            if bad_coordinate is not None:
                continue

            addr = words[:, 0].astype(np.uint32)
            is_dvs = None
            if layout.type_bit is not None:
                is_dvs = (addr >> layout.type_bit) & 1 == 0
                n_dvs = int(np.count_nonzero(is_dvs))
                self.skipped_non_dvs += n - n_dvs
                if n_dvs < n:
                    addr, ticks = addr[is_dvs], ticks[is_dvs]
            x = (addr >> layout.x_shift) & layout.x_mask
            y = (addr >> layout.y_shift) & layout.y_mask
            bad = np.flatnonzero((x >= g.width) | (y >= g.height))
            if bad.size:
                j = int(bad[0])
                record = base + (j if is_dvs is None else int(np.flatnonzero(is_dvs)[j]))
                bad_coordinate = (
                    f"record {record}: coordinate ({x[j]}, {y[j]}) outside "
                    f"{g.width}x{g.height} geometry"
                )
                continue
            if not len(addr):
                continue
            negative = ((addr >> layout.polarity_shift) & 1) != layout.polarity_on_value
            p = 1 - 2 * negative.view(np.int8)
            self.events += len(ticks)
            yield EventStream(g, x.astype(np.int32), y.astype(np.int32), ticks, p)
        if bad_coordinate is not None:
            raise FormatError(bad_coordinate)


def _read_header(f: BinaryIO) -> int:
    """Consume the header lines, leaving f at the body; return the line count.

    AEDAT 2.0 does not delimit its header, and a record can start with '#'
    (a DAVIS240C record with y in 140..143). A header line is therefore a
    '#' line of UTF-8 text without C0 control characters other than tab and
    CR. The first '#' line that is not starts the body if the bytes from
    there are whole records, and is an error otherwise. A last header line
    shorter than a record is also the start of the body when the body is
    whole records only with it, as when a record's second byte is a newline.
    """
    pos = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(pos)
    lines, last = 0, None
    while f.read(1) == b"#":
        line = b"#" + f.readline()
        problem = _header_line_problem(line)
        if problem is None:
            last, pos, lines = pos, pos + len(line), lines + 1
        elif (end - pos) % 8 == 0:
            break
        else:
            raise FormatError(f"header line {lines + 1}: {problem}")
    if (end - pos) % 8 and last is not None and pos - last < 8 and (end - last) % 8 == 0:
        pos, lines = last, lines - 1
    f.seek(pos)
    return lines


def _header_line_problem(line: bytes) -> str | None:
    """Why a '#' line read up to its newline is not a header line, or None."""
    if not line.endswith(b"\n"):
        return "missing trailing newline"
    try:
        line[:-1].decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"not valid text ({exc})"
    control = _CONTROL.search(line)
    if control:
        byte, i = control[0][0], control.start()
        return f"not valid text (control character {byte:#04x} in position {i})"
    return None


def parse_text(text: str, geometry: SensorGeometry) -> EventStream:
    """Parse the ``t x y p`` text format into an EventStream (see :class:`TextReader`)."""
    return EventStream.concat(geometry, list(TextReader(io.StringIO(text, newline=""), geometry)))


class TextReader:
    """Parse a ``t x y p`` text file block by block (see module docstring).

    ``f`` is a seekable text file object opened with ``newline=""``, and
    for a file on disk with ``encoding="utf-8", errors="surrogateescape"``.
    Each iteration reads it from the start and yields one EventStream per
    ``_BLOCK_RECORDS`` events. Raises FormatError with a 1-based line
    number for lines that are not valid UTF-8, malformed lines,
    out-of-bounds coordinates, timestamps outside [0, 2**63 - 1], or
    timestamps that move backward.
    """

    def __init__(self, f: TextIO, geometry: SensorGeometry):
        self._f = f
        self.geometry = geometry

    def __iter__(self) -> Iterator[EventStream]:
        geometry = self.geometry
        self._f.seek(0)
        # Lines end as str.splitlines() ends them, not only at \r, \n and \r\n.
        lines = (line for piece in self._f for line in piece.splitlines())
        ts, xs, ys, ps = [], [], [], []
        prev_t = None
        for lineno, line in enumerate(lines, start=1):
            # Bytes that are not UTF-8 read as lone surrogates, which encode() refuses.
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise FormatError(f"line {lineno}: not valid UTF-8") from None
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.replace(",", " ").split()
            if len(parts) != 4:
                raise FormatError(f"line {lineno}: expected 4 fields 't x y p', got {len(parts)}")
            try:
                t, x, y, p = (int(v) for v in parts)
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer field in {stripped!r}") from None
            if p == 0:
                p = -1
            if p not in (1, -1):
                raise FormatError(f"line {lineno}: polarity must be 1, -1 or 0, got {p}")
            if t < 0:
                raise FormatError(f"line {lineno}: negative timestamp {t}")
            if t > MAX_TIMESTAMP_US:
                raise FormatError(f"line {lineno}: timestamp {t} beyond the int64 range")
            if not (0 <= x < geometry.width and 0 <= y < geometry.height):
                raise FormatError(
                    f"line {lineno}: coordinate ({x}, {y}) outside "
                    f"{geometry.width}x{geometry.height} geometry"
                )
            if prev_t is not None and t < prev_t:
                raise FormatError(f"line {lineno}: timestamp moves backward ({t} after {prev_t})")
            prev_t = t
            ts.append(t)
            xs.append(x)
            ys.append(y)
            ps.append(p)
            if len(ts) == _BLOCK_RECORDS:
                yield EventStream(geometry, xs, ys, ts, ps)
                ts, xs, ys, ps = [], [], [], []
        if ts:
            yield EventStream(geometry, xs, ys, ts, ps)


def write_text(stream: EventStream) -> str:
    """Serialize a stream as ``t x y p`` lines; parse_text inverts it exactly."""
    cols = np.empty((len(stream), 4), dtype=np.int64)
    cols[:, 0] = stream.t
    cols[:, 1] = stream.x
    cols[:, 2] = stream.y
    cols[:, 3] = stream.p
    return ("%d %d %d %d\n" * len(stream)) % tuple(cols.ravel().tolist())
