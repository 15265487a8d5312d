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
does not match exactly. The writer streams: it writes the header with a
frame_count of 0, then each frame as it arrives, and at the end seeks back
to patch frame_count, so it holds one frame at a time. The reader's frames
are read-only views of the input buffer, not copies.

Score tables are one CSV-ish text line per chunk with a '#' header naming K
(and optionally the class labels). Images are written as binary PGM
(1 channel) or PPM (3 channels).
"""

from __future__ import annotations

import io
import itertools
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .encoders import EncodedFrame
from .ingest import FormatError
from .scoring import ScoreVector

FRAME_TENSOR_MAGIC = b"EVFR"
FRAME_TENSOR_VERSION = 1

_HEADER = struct.Struct("<4sBIIII")
_COUNT = struct.Struct("<I")
_COUNT_OFFSET = _HEADER.size - _COUNT.size  # frame_count ends the header
_FRAME_PREFIX = struct.Struct("<qqB")


@dataclass
class FrameTensor:
    """Decoded frame-tensor file: geometry plus the frames in file order."""

    width: int
    height: int
    channels: int
    frames: list[EncodedFrame]


def write_frame_tensor(
    frames: Sequence[EncodedFrame], shape: tuple[int, int, int] | None = None
) -> bytes:
    """Serialize frames to frame-tensor bytes (see :func:`write_frame_tensor_to`)."""
    buf = io.BytesIO()
    write_frame_tensor_to(buf, frames, shape)
    return buf.getvalue()


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
    if first is not None:
        shape = first.pixels.shape
        frames = itertools.chain([first], frames)
    elif shape is None:
        raise ValueError("shape is required to write an empty frame tensor")
    height, width, channels = shape
    start = f.tell()
    f.write(_HEADER.pack(FRAME_TENSOR_MAGIC, FRAME_TENSOR_VERSION, width, height, channels, 0))
    count = 0
    for frame in frames:
        if frame.pixels.shape != shape:
            raise ValueError(f"frame {count}: shape {frame.pixels.shape} does not match {shape}")
        f.write(_FRAME_PREFIX.pack(frame.window_start, frame.window_end, 1 if frame.empty else 0))
        f.write(np.ascontiguousarray(frame.pixels, dtype=np.uint8))
        count += 1
    end = f.tell()
    f.seek(start + _COUNT_OFFSET)
    f.write(_COUNT.pack(count))
    f.seek(end)
    return count


def read_frame_tensor(data: bytes) -> FrameTensor:
    """Decode frame-tensor bytes, checking magic, version and exact length."""
    if len(data) < _HEADER.size:
        raise FormatError(f"frame tensor header needs {_HEADER.size} bytes, got {len(data)}")
    magic, version, width, height, channels, frame_count = _HEADER.unpack_from(data)
    if magic != FRAME_TENSOR_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {FRAME_TENSOR_MAGIC!r}")
    if version != FRAME_TENSOR_VERSION:
        raise FormatError(f"unsupported frame tensor version {version}")

    frame_bytes = height * width * channels
    expected = _HEADER.size + frame_count * (_FRAME_PREFIX.size + frame_bytes)
    if len(data) != expected:
        raise FormatError(
            f"file length {len(data)} does not match header "
            f"({frame_count} frames of {height}x{width}x{channels} need {expected} bytes)"
        )

    frames = []
    pos = _HEADER.size
    for i in range(frame_count):
        start, end, flag = _FRAME_PREFIX.unpack_from(data, pos)
        if flag not in (0, 1):
            raise FormatError(f"frame {i}: empty flag must be 0 or 1, got {flag}")
        pos += _FRAME_PREFIX.size
        pixels = np.frombuffer(data, np.uint8, count=frame_bytes, offset=pos).reshape(
            height, width, channels
        )
        pixels.setflags(write=False)
        pos += frame_bytes
        frames.append(EncodedFrame(pixels, None, None, start, end, bool(flag)))
    return FrameTensor(width, height, channels, frames)


# ---------------------------------------------------------------------------
# Score tables
# ---------------------------------------------------------------------------


def write_scores(vectors: Sequence[ScoreVector], class_names: Sequence[str] | None = None) -> str:
    """Serialize per-chunk score vectors as text (one line per chunk)."""
    if not vectors:
        raise ValueError("no score vectors to write")
    k = len(vectors[0].scores)
    header = f"# k={k}"
    if class_names is not None:
        if len(class_names) != k:
            raise ValueError(f"got {len(class_names)} class names for {k} classes")
        for name in class_names:
            if "," in name or "\n" in name:
                raise ValueError(f"class name {name!r} may not contain commas or newlines")
        header += " classes=" + ",".join(class_names)
    lines = [header]
    for v in sorted(vectors, key=lambda v: v.chunk_index):
        lines.append(",".join([str(v.chunk_index)] + [repr(float(s)) for s in v.scores]))
    return "\n".join(lines) + "\n"


def parse_scores(text: str) -> tuple[list[ScoreVector], list[str] | None]:
    """Parse a score table; returns the vectors and the class names, if any.

    Enforces the header, a constant score count per line, and strictly
    increasing chunk indices. Errors carry 1-based line numbers.
    """
    k = None
    class_names = None
    vectors: list[ScoreVector] = []
    last_index = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def write_pgm(pixels: np.ndarray) -> bytes:
    """Encode an (H, W) or (H, W, 1) uint8 array as binary PGM (P5)."""
    if pixels.ndim == 3 and pixels.shape[2] == 1:
        pixels = pixels[:, :, 0]
    if pixels.ndim != 2:
        raise ValueError(f"PGM needs one channel, got shape {pixels.shape}")
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()


def write_ppm(pixels: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as binary PPM (P6)."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"PPM needs three channels, got shape {pixels.shape}")
    height, width = pixels.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()
