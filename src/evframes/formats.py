"""On-disk containers: frame tensors, score tables, portable images.

The frame-tensor format is a minimal binary container for a sequence of
same-shaped 8-bit frames plus their window bounds:

    magic   4 bytes  b"EVFR"
    version 1 byte   (= 1)
    width, height, channels, frame_count   u32 little-endian each
    then per frame:
        window_start  i64 little-endian, microseconds
        window_end    i64 little-endian, microseconds
        empty flag    1 byte (0 or 1)
        pixels        height*width*channels bytes, row-major, channel-interleaved

All sizes are implied by the header; a reader rejects files whose length
does not match exactly. The header stores width first, but a tensor's
``shape`` is (height, width, channels) here, as a frame's ``pixels.shape``
is: both writers take it so, and both readers give it so.
:func:`write_frame_tensor_to` streams: it writes the header with a
frame_count of 0, then each frame as it arrives, and at the end seeks back
to rewrite the header with the real count, so it holds one frame at a time.
:func:`write_frame_tensor` has every frame in hand, so it packs the real
count and joins header, prefixes and pixels into one bytes object sized
once. Both check the shape they are given, and each frame's shape, uint8
pixels and bounds; version 1 holds at most ``MAX_FRAME_COUNT`` frames.
:func:`read_frame_tensor` decodes bytes already in memory, and its frames
are read-only views of them; :class:`FrameTensorReader` reads a file one
frame at a time, and its ``prefixes()`` reads only each frame's 17-byte
prefix and seeks past the pixels. Every prefix either reader reads is
unpacked, and its empty flag checked, by one function.

Score tables are one CSV-ish text line per chunk with a '#' header naming K
(and optionally the class labels). :class:`ScoreTableReader` reads one a
row at a time, and :func:`parse_scores` is the list of its rows. Images
are written as binary PGM (1 channel) or PPM (3 channels).

:class:`FormatError` is the error of every reader of malformed input, here
and in ``ingest``. Reading prefixes and score tables needs no numpy; the
functions that handle pixels import it when they are called, so that
``evframes chunk`` and ``aggregate`` run without it.
"""

from __future__ import annotations

import io
import math
import struct
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence, TextIO

from .scoring import ScoreVector

if TYPE_CHECKING:
    import numpy as np

    from .encoders import EncodedFrame

FRAME_TENSOR_MAGIC = b"EVFR"
FRAME_TENSOR_VERSION = 1
# Most frames a frame tensor holds: frame_count is a u32 in format version 1.
MAX_FRAME_COUNT = (1 << 32) - 1

_HEADER = struct.Struct("<4sBIIII")
_FRAME_PREFIX = struct.Struct("<qqB")
_SHAPE = struct.Struct("<III")  # three frame sizes, each a u32 as in the header


class FormatError(ValueError):
    """Malformed input data; the message carries the position of the defect."""


def _check_utf8(line: str, lineno: int) -> None:
    """Refuse a non-ASCII line holding bytes that were not UTF-8, read as lone surrogates."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise FormatError(f"line {lineno}: not valid UTF-8") from None


@dataclass
class FrameTensor:
    """Decoded frame-tensor file: its (height, width, channels) shape and frames in file order."""

    shape: tuple[int, int, int]
    frames: list[EncodedFrame]


def write_frame_tensor(
    frames: Iterable[EncodedFrame], shape: tuple[int, int, int] | None = None
) -> bytes:
    """Serialize frames to frame-tensor bytes in one allocation of the exact size.

    Checks its frames and gives its bytes as :func:`write_frame_tensor_to`
    does; shape, if not given, is the first frame's.
    """
    frames = list(frames)
    if shape is None and not frames:
        raise ValueError("shape is required to write an empty frame tensor")
    shape = _tensor_shape(frames[0].pixels.shape if shape is None else shape)
    # Every frame is checked, in order, before the header is packed.
    body = [part for record in _frame_records(frames, shape) for part in record]
    return b"".join([_pack_header(shape, len(frames)), *body])


def write_frame_tensor_to(
    f: BinaryIO, frames: Iterable[EncodedFrame], shape: tuple[int, int, int]
) -> int:
    """Write frames to a seekable binary file as they arrive; return the frame count.

    shape is the tensor's (height, width, channels), which every frame must
    match; kind and polarity mode are not recorded.
    """
    shape = _tensor_shape(shape)
    start = f.tell()
    f.write(_pack_header(shape, 0))
    count = 0
    for count, record in enumerate(_frame_records(frames, shape), start=1):
        f.writelines(record)
    end = f.tell()
    f.seek(start)
    f.write(_pack_header(shape, count))
    f.seek(end)
    return count


def _tensor_shape(shape: Iterable[int]) -> tuple[int, int, int]:
    """shape as a tuple of the three ints that the header's u32 size fields hold.

    The readers refuse a tensor whose non-zero sizes multiply past sys.maxsize,
    so the writers refuse such a shape too, even for a tensor of no frames.
    """
    try:
        sizes = _SHAPE.unpack(_SHAPE.pack(*shape))
    except (TypeError, struct.error):
        sizes = None
    if sizes is None or math.prod(d for d in sizes if d) > sys.maxsize:
        raise ValueError(
            f"frame tensor shape {shape!r} is not three sizes in 0..2**32-1 "
            "with a product of at most sys.maxsize"
        )
    return sizes


def _pack_header(shape: tuple[int, int, int], count: int) -> bytes:
    height, width, channels = shape
    return _HEADER.pack(FRAME_TENSOR_MAGIC, FRAME_TENSOR_VERSION, width, height, channels, count)


def _frame_records(
    frames: Iterable[EncodedFrame], shape: tuple[int, int, int]
) -> Iterator[tuple[bytes, np.ndarray]]:
    """Each frame's packed prefix and C-contiguous uint8 pixels, checked in frame order.

    Raises ValueError on a frame of another shape, with pixels that are not
    uint8 or with non-int64 window bounds, or on the frame that would pass
    ``MAX_FRAME_COUNT``.
    """
    import numpy as np

    for i, frame in enumerate(frames):
        if i == MAX_FRAME_COUNT:
            raise ValueError(
                f"frame tensor format version {FRAME_TENSOR_VERSION} holds at most "
                f"{MAX_FRAME_COUNT} frames"
            )
        if frame.pixels.shape != shape:
            raise ValueError(f"frame {i}: shape {frame.pixels.shape} does not match {shape}")
        if frame.pixels.dtype != np.uint8:
            raise ValueError(f"frame {i}: pixels must be uint8, got {frame.pixels.dtype}")
        try:
            prefix = _FRAME_PREFIX.pack(frame.window_start, frame.window_end, bool(frame.empty))
        except struct.error:
            raise ValueError(f"frame {i}: window bounds are not int64 values") from None
        yield prefix, np.ascontiguousarray(frame.pixels)


def read_frame_tensor(data: bytes) -> FrameTensor:
    """Decode frame-tensor bytes, checking magic, version and exact length.

    The frames' pixels are read-only views of data.
    """
    shape, n = _unpack_header(data, len(data))
    return FrameTensor(shape, _decode_frames(memoryview(data)[_HEADER.size :], n, shape))


class FrameTensorReader:
    """Read a frame-tensor file one frame, or one frame prefix, at a time.

    ``f`` is a seekable binary file at the start of the tensor. Construction
    reads ``shape`` and ``frame_count`` from the header and checks them and
    the exact length as :func:`read_frame_tensor` does. Each iteration starts
    again at the first frame and checks every empty flag it passes.
    """

    def __init__(self, f: BinaryIO):
        self._f = f
        start = f.tell()
        header = f.read(_HEADER.size)
        size = f.seek(0, io.SEEK_END) - start
        self.shape, self.frame_count = _unpack_header(header, size)
        self._body = start + _HEADER.size
        self._frame_bytes = math.prod(self.shape)

    def frames(self) -> Iterator[EncodedFrame]:
        """Yield each frame; its pixels are read-only and are read when it is reached."""
        self._f.seek(self._body)
        for i in range(self.frame_count):
            buf = self._read(_FRAME_PREFIX.size + self._frame_bytes, i)
            yield from _decode_frames(buf, 1, self.shape, i)

    def prefixes(self) -> Iterator[tuple[int, int, bool]]:
        """Yield each frame's (window_start, window_end, empty), skipping its pixels."""
        self._f.seek(self._body)
        for i in range(self.frame_count):
            yield _prefix(self._read(_FRAME_PREFIX.size, i), 0, i)
            self._f.seek(self._frame_bytes, io.SEEK_CUR)

    def _read(self, n: int, i: int) -> bytes:
        buf = self._f.read(n)
        if len(buf) != n:  # the file shrank after the length check
            raise FormatError(f"frame {i}: file ended while reading")
        return buf


def _unpack_header(header: bytes, size: int) -> tuple[tuple[int, int, int], int]:
    """((height, width, channels), frame_count) from a header, checked against the file size."""
    if size < _HEADER.size:
        raise FormatError(f"frame tensor header needs {_HEADER.size} bytes, got {size}")
    magic, version, width, height, channels, frame_count = _HEADER.unpack_from(header)
    if magic != FRAME_TENSOR_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {FRAME_TENSOR_MAGIC!r}")
    if version != FRAME_TENSOR_VERSION:
        raise FormatError(f"unsupported frame tensor version {version}")
    expected = _HEADER.size + frame_count * (_FRAME_PREFIX.size + height * width * channels)
    if size != expected:
        raise FormatError(
            f"file length {size} does not match header "
            f"({frame_count} frames of {height}x{width}x{channels} need {expected} bytes)"
        )
    # Zero-size frames pass the length check whatever their other dimensions.
    if math.prod(d for d in (frame_count, height, width, channels) if d) > sys.maxsize:
        raise FormatError(f"{frame_count} frames of {height}x{width}x{channels} are too large")
    return (height, width, channels), frame_count


def _decode_frames(
    buf, count: int, shape: tuple[int, int, int], first: int = 0
) -> list[EncodedFrame]:
    """The count packed frames in the bytes-like buf, numbered from first.

    The frames' pixels are read-only views of buf.
    """
    import numpy as np

    from .encoders import EncodedFrame

    size = _FRAME_PREFIX.size + math.prod(shape)
    rows = np.frombuffer(buf, np.uint8).reshape(count, size)
    rows.setflags(write=False)
    pixels = rows[:, _FRAME_PREFIX.size :].reshape(count, *shape)
    return [
        EncodedFrame(p, None, None, *_prefix(buf, j * size, first + j))
        for j, p in enumerate(pixels)
    ]


def _prefix(buf, offset: int, i: int) -> tuple[int, int, bool]:
    """Frame i's (window_start, window_end, empty), from the prefix at offset in buf."""
    start, end, flag = _FRAME_PREFIX.unpack_from(buf, offset)
    if flag > 1:
        raise FormatError(f"frame {i}: empty flag must be 0 or 1, got {flag}")
    return start, end, flag == 1


# ---------------------------------------------------------------------------
# Score tables
# ---------------------------------------------------------------------------


def write_scores(vectors: Sequence[ScoreVector], class_names: Sequence[str] | None = None) -> str:
    """Serialize per-chunk score vectors as text (one line per chunk).

    Every vector must have the same length K and its own chunk index, as
    :func:`parse_scores` requires; the offending chunk is named otherwise.
    """
    if not vectors:
        raise ValueError("no score vectors to write")
    ordered = sorted(vectors, key=lambda v: v.chunk_index)
    k = len(ordered[0].values)
    for i, v in enumerate(ordered):
        if len(v.values) != k:
            raise ValueError(
                f"chunk {v.chunk_index}: score vector has {len(v.values)} classes, expected {k}"
            )
        if i and v.chunk_index == ordered[i - 1].chunk_index:
            raise ValueError(f"chunk {v.chunk_index}: chunk index appears more than once")
    header = f"# k={k}"
    if class_names is not None:
        if len(class_names) != k:
            raise ValueError(f"got {len(class_names)} class names for {k} classes")
        # parse_scores splits the header at whitespace and the names at commas.
        for name in class_names:
            if "," in name or any(c.isspace() for c in name):
                raise ValueError(f"class name {name!r} may not contain commas or whitespace")
        header += " classes=" + ",".join(class_names)
    lines = [header]
    for v in ordered:
        lines.append(",".join([str(v.chunk_index), *map(repr, v.values)]))
    return "\n".join(lines) + "\n"


class ScoreTableReader:
    """Read a score table one row at a time, as a ScoreVector per data line.

    ``f`` is a seekable text file opened with ``newline=""``; its lines end
    as ``str.splitlines()`` ends them. Each iteration starts again at the
    first line and checks UTF-8, the header, a constant score count per line
    and strictly increasing chunk indices, in line order; errors carry
    1-based line numbers. A table with no header is refused at its end.
    ``class_names`` is the header's (None without ``classes=``), set when
    the header is read.
    """

    def __init__(self, f: TextIO):
        self._f = f
        self.class_names = None

    def __iter__(self) -> Iterator[ScoreVector]:
        self._f.seek(0)
        self.class_names = None
        lines = (line for piece in self._f for line in piece.splitlines())
        k = last_index = None
        for lineno, raw in enumerate(lines, start=1):
            if not raw.isascii():
                _check_utf8(raw, lineno)
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if k is None:
                    k, self.class_names = _parse_score_header(line, lineno)
                continue
            if k is None:
                raise FormatError(f"line {lineno}: expected '# k=...' header before data")
            fields = line.split(",")
            if len(fields) != k + 1:
                raise FormatError(f"line {lineno}: expected {k} scores, got {len(fields) - 1}")
            try:
                index = int(fields[0])
                vector = ScoreVector([float(s) for s in fields[1:]], index)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            if last_index is not None and index <= last_index:
                raise FormatError(
                    f"line {lineno}: chunk index {index} not greater than previous {last_index}"
                )
            last_index = index
            yield vector
        if k is None:
            raise FormatError("score file has no '# k=...' header")


def parse_scores(text: str) -> tuple[list[ScoreVector], list[str] | None]:
    """Parse a score table; returns the vectors and the class names, if any.

    The rows and their checks are :class:`ScoreTableReader`'s.
    """
    table = ScoreTableReader(io.StringIO(text, newline=""))
    return list(table), table.class_names


def _parse_score_header(line: str, lineno: int) -> tuple[int, list[str] | None]:
    class_names = None
    k = None
    for token in line.lstrip("#").split():
        if token.startswith("k="):
            try:
                k = int(token[2:])
            except ValueError:
                raise FormatError(f"line {lineno}: bad k value {token[2:]!r}") from None
        elif token.startswith("classes="):
            class_names = token[len("classes=") :].split(",")
    if k is None or k < 1:
        raise FormatError(f"line {lineno}: header must declare k=<positive count>")
    if class_names is not None and len(class_names) != k:
        raise FormatError(f"line {lineno}: {len(class_names)} class names for k={k}")
    return k, class_names


# ---------------------------------------------------------------------------
# Portable images
# ---------------------------------------------------------------------------


def write_pnm(pixels: np.ndarray) -> bytes:
    """Encode (H, W) or (H, W, 1) uint8 pixels as binary PGM (P5), (H, W, 3) as PPM (P6)."""
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    if pixels.ndim != 3 or pixels.shape[2] not in (1, 3):
        raise ValueError(f"PNM needs one or three channels, got shape {pixels.shape}")
    if pixels.dtype != "uint8":
        raise ValueError(f"PNM needs uint8 pixels, got {pixels.dtype}")
    height, width, channels = pixels.shape
    header = f"{'P5' if channels == 1 else 'P6'}\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.tobytes()
