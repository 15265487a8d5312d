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
wrap, so output timestamps are monotone int64 microseconds. A record whose
unwrapped tick would pass the int64 range is an error, found in each block
before its backward ticks.

AEDAT input is read in blocks of ``_BLOCK_RECORDS`` (2**14) records, or
128 KiB, by :class:`AedatReader`, so memory does not grow with the file.
Blocks this small run as fast as larger ones only where the process keeps
its heap top, as the ``evframes`` program does for its block-reading
commands; the library never touches the allocator. Each block is
decoded in a call of its own, with one buffer per column; the input bytes
go once the address words are copied out. The previous
record's tick and the wrap count carry across blocks, and error positions
(record index, byte offset) count from the start of the file. The checks and
their order are those of a whole-file pass: header, then trailing partial
record (known from the file size), then backward ticks anywhere in the file,
then coordinates; a bad coordinate is therefore reported only once every
tick has been checked. :func:`parse_aedat2_stats` reads bytes through the
same reader, joins the blocks and returns the reader, whose attributes
count what it read.

Text format: UTF-8, one event per line as ``t x y p`` (whitespace or
commas), ``#`` comment lines skipped, polarity accepted as 1/-1/0 with 0
read as -1.
Text is read in blocks of ``_BLOCK_RECORDS`` (2**14) events by
:class:`TextReader`, in bounded memory; the previous timestamp and the line
number carry across blocks. :func:`parse_text` reads a string through the
same reader.
:func:`write_text` builds its text from :func:`text_slices`, pieces of
``_TEXT_SLICE`` lines, which a writer can also write one at a time.
"""

from __future__ import annotations

import io
import re
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from .formats import FormatError, _check_utf8
from .options import AedatLayout, SensorGeometry
from .stream import MAX_TIMESTAMP_US, EventStream

_WRAP_STEP = 1 << 32
_WRAP_JUMP = 1 << 31

# C0 control characters other than tab, newline and CR
_CONTROL = re.compile(rb"[\x00-\x08\x0b\x0c\x0e-\x1f]")

# Records AedatReader decodes at a time (128 KiB of input), and events
# TextReader parses at a time. On a 5M-event recording, 2**14-record blocks
# took the encode peak from 32.6 to 31.7 MB against 2**16 in the same wall
# time, in a process that keeps its heap top as the CLI does
# (cli._pad_heap_top). Without the pad they ran slower than 2**16: each
# freed block went back to the system and was faulted in again.
_BLOCK_RECORDS = 1 << 14


def parse_aedat2(data: bytes, layout: AedatLayout, geometry: SensorGeometry) -> EventStream:
    """Parse AEDAT 2.0 bytes into an EventStream (see module docstring)."""
    stream, _ = parse_aedat2_stats(data, layout, geometry)
    return stream


def parse_aedat2_stats(
    data: bytes, layout: AedatLayout, geometry: SensorGeometry
) -> tuple[EventStream, AedatReader]:
    """Parse AEDAT 2.0 bytes, also returning the reader, whose attributes are the statistics."""
    reader = AedatReader(io.BytesIO(data), layout, geometry)
    return EventStream.concat(geometry, list(reader)), reader


class AedatReader:
    """Decode an AEDAT 2.0 file block by block (see module docstring).

    ``f`` is a seekable binary file object positioned at the start of the
    file. Construction reads the header and checks that the body holds
    whole records; each iteration decodes the body from its start and
    yields one EventStream per block of up to ``_BLOCK_RECORDS`` records
    that holds DVS events.

    The parse statistics are attributes: ``header_lines`` and ``records``
    are known on construction; ``events``, ``skipped_non_dvs`` and
    ``timestamp_wraps`` count the latest iteration and are complete once
    it has finished.
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

    def __iter__(self) -> Iterator[EventStream]:
        self._f.seek(self._body_start)
        self.events = self.skipped_non_dvs = self.timestamp_wraps = 0
        # Carried across blocks: the previous record's raw and unwrapped tick,
        # and the first bad coordinate. A bad coordinate is reported only at
        # the end, because a backward tick anywhere in the file takes
        # precedence; the blocks after it are still read for their ticks.
        self._last_raw = self._last_tick = self._bad_coordinate = None
        # Each block is decoded in a call of its own and handed on without a
        # name, so none of its arrays outlives it while the next is decoded.
        # That binds its consumers too: each lets go of a block, and of every
        # view of it, before it asks for the next.
        blocks = (self._decode(base) for base in range(0, self.records, _BLOCK_RECORDS))
        yield from filter(None, blocks)
        if self._bad_coordinate is not None:
            raise FormatError(self._bad_coordinate)

    def _decode(self, base: int) -> EventStream | None:
        """The DVS events of the block of records from index base on; None if it holds none."""
        layout, g = self.layout, self.geometry
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
        if self._last_raw is not None and raw[0] < self._last_raw:
            down, before = np.r_[0, down], np.r_[self._last_raw, before]
        wrapped = raw[down] - before < -_WRAP_JUMP
        wraps = down[wrapped]
        self._last_raw = int(raw[-1])
        # A raw tick is below the power of two _WRAP_STEP, so a tick leaves int64
        # exactly when more than MAX_TIMESTAMP_US // _WRAP_STEP wraps come before it.
        room = MAX_TIMESTAMP_US // _WRAP_STEP - self.timestamp_wraps
        if room < wraps.size:
            i = int(wraps[room])
            t = int(raw[i]) + (self.timestamp_wraps + room + 1) * _WRAP_STEP
            raise FormatError(f"record {base + i}: unwrapped tick {t} beyond the int64 range")
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
                f"({ticks[i]} after {ticks[i - 1] if i else self._last_tick}) "
                "and is not a 32-bit wrap"
            )
        self._last_tick = ticks[-1]
        if self._bad_coordinate is not None:
            return None

        # Each column below is built in one buffer of its own; the input
        # bytes go once the address words are copied out.
        addr = words[:, 0].astype(np.uint32)
        del buf, words
        is_dvs = None
        if layout.type_bit is not None:
            is_dvs = (addr >> layout.type_bit) & 1 == 0
            n_dvs = int(np.count_nonzero(is_dvs))
            self.skipped_non_dvs += n - n_dvs
            if n_dvs < n:
                addr, ticks = addr[is_dvs], ticks[is_dvs]
        x = addr >> layout.x_shift
        x &= layout.x_mask
        y = addr >> layout.y_shift
        y &= layout.y_mask
        bad = np.flatnonzero((x >= g.width) | (y >= g.height))
        if bad.size:
            j = int(bad[0])
            record = base + (j if is_dvs is None else int(np.flatnonzero(is_dvs)[j]))
            self._bad_coordinate = (
                f"record {record}: coordinate ({x[j]}, {y[j]}) outside "
                f"{g.width}x{g.height} geometry"
            )
            return None
        if not len(addr):
            return None
        addr >>= layout.polarity_shift
        addr &= 1
        p = addr.astype(np.int8)
        p *= 2
        p -= 1  # +1 where the raw polarity bit is 1, -1 where it is 0
        if not layout.polarity_on_value:
            np.negative(p, out=p)
        self.events += len(ticks)
        # The polarity bit leaves x and y at most 31 bits, so int32 views are exact.
        return EventStream(g, x.view(np.int32), y.view(np.int32), ticks, p)


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
            if not line.isascii():
                _check_utf8(line, lineno)
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


# Events write_text formats at a time: its text is built slice by slice, so
# the Python ints of one formatting call stay small.
_TEXT_SLICE = 4096


def write_text(stream: EventStream) -> str:
    """Serialize a stream as ``t x y p`` lines; parse_text inverts it exactly."""
    return "".join(text_slices(stream))


def text_slices(stream: EventStream) -> Iterator[str]:
    """write_text's text in consecutive pieces of up to ``_TEXT_SLICE`` lines."""
    for lo in range(0, len(stream), _TEXT_SLICE):
        hi = min(lo + _TEXT_SLICE, len(stream))
        cols = np.empty((hi - lo, 4), dtype=np.int64)
        cols[:, 0] = stream.t[lo:hi]
        cols[:, 1] = stream.x[lo:hi]
        cols[:, 2] = stream.y[lo:hi]
        cols[:, 3] = stream.p[lo:hi]
        yield ("%d %d %d %d\n" * (hi - lo)) % tuple(cols.ravel().tolist())
