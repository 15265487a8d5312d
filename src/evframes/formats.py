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
        pixels        width*height*channels bytes, row-major,
                      channel-interleaved

All sizes are implied by the header; a reader rejects files whose length
does not match exactly. :func:`write_frame_tensor_to` streams: it writes
the header with a frame_count of 0, then each frame as it arrives, and at
the end seeks back to patch frame_count, so it holds one frame at a time.
:func:`write_frame_tensor` has every frame in hand, so it packs the real
count and joins header, prefixes and pixels into one bytes object sized
once. Both take each frame's prefix and pixels from one generator that
checks the frames. Version 1 holds at most ``MAX_FRAME_COUNT`` frames.
:func:`read_frame_tensor` decodes bytes already in memory, and its frames
are read-only views of them; :class:`FrameTensorReader` reads a file one
frame at a time. Both decode frames through one function, which checks
every empty flag. ``FrameTensorReader.prefixes()`` reads only each frame's
17-byte prefix, decoded by the same function as a frame without pixels,
and seeks past the pixels.

Score tables are one CSV-ish text line per chunk with a '#' header naming K
(and optionally the class labels). Images are written as binary PGM
(1 channel) or PPM (3 channels).
"""

from __future__ import annotations

import io
import itertools
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .encoders import EncodedFrame
from .ingest import FormatError, _check_utf8
from .scoring import ScoreVector
from .stream import MAX_FRAME_COUNT

FRAME_TENSOR_MAGIC = b"EVFR"
FRAME_TENSOR_VERSION = 1

_HEADER = struct.Struct("<4sBIIII")
_COUNT = struct.Struct("<I")
_COUNT_OFFSET = _HEADER.size - _COUNT.size  # frame_count ends the header
_FRAME_PREFIX = struct.Struct("<qqB")
# The same prefix as a numpy record, for decoding every prefix at once.
_PREFIX_RECORD = np.dtype(
    [(name, "<" + code) for name, code in zip(("start", "end", "empty"), _FRAME_PREFIX.format[1:])]
)


@dataclass
class FrameTensor:
    """Decoded frame-tensor file: geometry plus the frames in file order."""

    width: int
    height: int
    channels: int
    frames: list[EncodedFrame]


def write_frame_tensor(
    frames: Iterable[EncodedFrame], shape: tuple[int, int, int] | None = None
) -> bytes:
    """Serialize frames to frame-tensor bytes in one allocation of the exact size.

    Takes the same arguments, checks them the same way and gives the same
    bytes as :func:`write_frame_tensor_to`.
    """
    frames = list(frames)
    shape = _tensor_shape(frames[0] if frames else None, shape)
    # Every frame is checked, in order, before the header is packed.
    body = [part for record in _frame_records(frames, shape) for part in record]
    return b"".join([_pack_header(shape, len(frames)), *body])


def write_frame_tensor_to(
    f: BinaryIO, frames: Iterable[EncodedFrame], shape: tuple[int, int, int] | None = None
) -> int:
    """Write frames to a seekable binary file as they arrive; return the frame count.

    shape is (height, width, channels) and is only consulted (and then
    required) when there are no frames; otherwise it is taken from the
    first frame, which every frame must match. Frame kind and polarity mode
    are not recorded. The header goes out first with a frame count of 0,
    which is patched once the frames are written.
    """
    frames = iter(frames)
    first = next(frames, None)
    shape = _tensor_shape(first, shape)
    if first is not None:
        frames = itertools.chain([first], frames)
    start = f.tell()
    f.write(_pack_header(shape, 0))
    count = 0
    for count, (prefix, pixels) in enumerate(_frame_records(frames, shape), start=1):
        f.write(prefix)
        f.write(pixels)
    end = f.tell()
    f.seek(start + _COUNT_OFFSET)
    f.write(_COUNT.pack(count))
    f.seek(end)
    return count


def _tensor_shape(
    first: EncodedFrame | None, shape: tuple[int, int, int] | None
) -> tuple[int, int, int]:
    """The tensor's (height, width, channels): the first frame's, else the given shape."""
    if first is not None:
        shape = first.pixels.shape
    elif shape is None:
        raise ValueError("shape is required to write an empty frame tensor")
    height, width, channels = shape  # any other rank fails here, before a frame is read
    return height, width, channels


def _pack_header(shape: tuple[int, int, int], count: int) -> bytes:
    height, width, channels = shape
    return _HEADER.pack(FRAME_TENSOR_MAGIC, FRAME_TENSOR_VERSION, width, height, channels, count)


def _frame_records(
    frames: Iterable[EncodedFrame], shape: tuple[int, int, int]
) -> Iterator[tuple[bytes, np.ndarray]]:
    """Each frame's packed prefix and C-contiguous uint8 pixels, checked in frame order.

    Raises ValueError on a frame of the wrong shape or with non-int64 window
    bounds, or on the frame that would pass ``MAX_FRAME_COUNT``.
    """
    for i, frame in enumerate(frames):
        if i == MAX_FRAME_COUNT:
            raise ValueError(
                f"frame tensor format version {FRAME_TENSOR_VERSION} holds at most "
                f"{MAX_FRAME_COUNT} frames"
            )
        if frame.pixels.shape != shape:
            raise ValueError(f"frame {i}: shape {frame.pixels.shape} does not match {shape}")
        try:
            prefix = _FRAME_PREFIX.pack(frame.window_start, frame.window_end, bool(frame.empty))
        except struct.error:
            raise ValueError(f"frame {i}: window bounds are not int64 values") from None
        yield prefix, np.ascontiguousarray(frame.pixels, dtype=np.uint8)


def read_frame_tensor(data: bytes) -> FrameTensor:
    """Decode frame-tensor bytes, checking magic, version and exact length.

    The frames' pixels are read-only views of data.
    """
    width, height, channels, frame_count = _unpack_header(data, len(data))
    body = memoryview(data)[_HEADER.size :]
    frames = _decode_frames(body, frame_count, (height, width, channels))
    return FrameTensor(width, height, channels, frames)


class FrameTensorReader:
    """Read a frame-tensor file one frame, or one frame prefix, at a time.

    ``f`` is a seekable binary file object positioned at the start of the
    tensor. Construction reads the header and checks it, and the exact
    length, as :func:`read_frame_tensor` does. Each iteration starts again
    at the first frame and checks every empty flag it passes.
    """

    def __init__(self, f: BinaryIO):
        self._f = f
        start = f.tell()
        header = f.read(_HEADER.size)
        size = f.seek(0, io.SEEK_END) - start
        self.width, self.height, self.channels, self.frame_count = _unpack_header(header, size)
        self._body = start + _HEADER.size
        self._frame_bytes = self.height * self.width * self.channels

    def frames(self) -> Iterator[EncodedFrame]:
        """Yield each frame; its pixels are read-only and are read when it is reached."""
        shape = (self.height, self.width, self.channels)
        self._f.seek(self._body)
        for i in range(self.frame_count):
            buf = self._read(_FRAME_PREFIX.size + self._frame_bytes, i)
            yield from _decode_frames(buf, 1, shape, i)

    def prefixes(self) -> Iterator[tuple[int, int, bool]]:
        """Yield each frame's (window_start, window_end, empty), skipping its pixels."""
        self._f.seek(self._body)
        for i in range(self.frame_count):
            # A prefix alone decodes as a frame without pixels.
            (frame,) = _decode_frames(self._read(_FRAME_PREFIX.size, i), 1, (0, 0, 0), i)
            yield frame.window_start, frame.window_end, frame.empty
            self._f.seek(self._frame_bytes, io.SEEK_CUR)

    def _read(self, n: int, i: int) -> bytes:
        buf = self._f.read(n)
        if len(buf) != n:  # the file shrank after the length check
            raise FormatError(f"frame {i}: file ended while reading")
        return buf


def _unpack_header(header: bytes, size: int) -> tuple[int, int, int, int]:
    """(width, height, channels, frame_count) from a header, checked against the file size."""
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
    if math.prod(d for d in (frame_count, height, width, channels) if d) > np.iinfo(np.intp).max:
        raise FormatError(f"{frame_count} frames of {height}x{width}x{channels} are too large")
    return width, height, channels, frame_count


def _decode_frames(
    buf, count: int, shape: tuple[int, int, int], first: int = 0
) -> list[EncodedFrame]:
    """The count packed frames in the bytes-like buf, numbered from first.

    Every empty flag is checked and the first bad one is named. The frames'
    pixels are read-only views of buf.
    """
    if not count:  # no rows, whose length reshape(0, -1) could not infer
        return []
    rows = np.frombuffer(buf, np.uint8).reshape(count, -1)
    rows.setflags(write=False)
    prefixes = rows[:, : _FRAME_PREFIX.size].view(_PREFIX_RECORD)[:, 0].tolist()
    pixels = rows[:, _FRAME_PREFIX.size :].reshape(count, *shape)
    frames = []
    for i, ((start, end, flag), p) in enumerate(zip(prefixes, pixels), start=first):
        if flag > 1:
            raise FormatError(f"frame {i}: empty flag must be 0 or 1, got {flag}")
        frames.append(EncodedFrame(p, None, None, start, end, flag == 1))
    return frames


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
    k = len(ordered[0].scores)
    for i, v in enumerate(ordered):
        if len(v.scores) != k:
            raise ValueError(
                f"chunk {v.chunk_index}: score vector has {len(v.scores)} classes, expected {k}"
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
        lines.append(",".join([str(v.chunk_index), *map(repr, v.scores.tolist())]))
    return "\n".join(lines) + "\n"


def parse_scores(text: str) -> tuple[list[ScoreVector], list[str] | None]:
    """Parse a score table; returns the vectors and the class names, if any.

    Enforces UTF-8, the header, a constant score count per line, and strictly
    increasing chunk indices. Errors carry 1-based line numbers.
    """
    k = None
    class_names = None
    vectors: list[ScoreVector] = []
    last_index = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            _check_utf8(raw, lineno)
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if k is None:
                k, class_names = _parse_score_header(line, lineno)
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
        vectors.append(vector)
    if k is None:
        raise FormatError("score file has no '# k=...' header")
    return vectors, class_names


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
    if pixels.dtype != np.uint8:
        raise ValueError(f"PNM needs uint8 pixels, got {pixels.dtype}")
    height, width, channels = pixels.shape
    header = f"{'P5' if channels == 1 else 'P6'}\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.tobytes()
