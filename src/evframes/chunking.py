"""Sliding groups of consecutive encoded frames (the classifier input unit).

The buffer holds 3 frames and advances one frame per step, so a sequence of
N frames yields max(0, N - 2) chunks and the first two frames of a recording
never head a chunk of their own. Size and stride are configurable for
ablations but default to the (3, 1) contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .encoders import EncodedFrame

DEFAULT_CHUNK_SIZE = 3
DEFAULT_STRIDE = 1

POLICY_KEEP = "keep"
POLICY_DROP_ALL_EMPTY = "drop_all_empty_chunks"
POLICIES = (POLICY_KEEP, POLICY_DROP_ALL_EMPTY)


@dataclass(frozen=True)
class Chunk:
    """Consecutive frames ordered oldest to newest; index is the newest frame's."""

    frames: tuple[EncodedFrame, ...]
    index: int

    @property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(range(self.index - len(self.frames) + 1, self.index + 1))

    @property
    def all_empty(self) -> bool:
        return all(f.empty for f in self.frames)


def select_chunks(
    empty: Sequence[bool],
    policy: str = POLICY_KEEP,
    size: int = DEFAULT_CHUNK_SIZE,
    stride: int = DEFAULT_STRIDE,
) -> list[range]:
    """Frame indices of each chunk that policy keeps, over frames with these empty flags.

    Chunks of `size` frames start at frames 0, stride, 2*stride, ... as long
    as they fit: N >= size frames give (N - size) // stride + 1 chunks before
    the policy, fewer give none. ``keep`` keeps every chunk;
    ``drop_all_empty_chunks`` drops the chunks whose every frame is empty.
    """
    if size < 1 or stride < 1:
        raise ValueError("chunk size and stride must be >= 1")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    chunks = [range(j, j + size) for j in range(0, len(empty) - size + 1, stride)]
    if policy == POLICY_DROP_ALL_EMPTY:
        chunks = [r for r in chunks if not all(empty[r.start : r.stop])]
    return chunks


def make_chunks(
    frames: Sequence[EncodedFrame],
    size: int = DEFAULT_CHUNK_SIZE,
    stride: int = DEFAULT_STRIDE,
) -> list[Chunk]:
    """Group frames into overlapping chunks of `size`, advancing by `stride`.

    Fewer than `size` frames yield no chunks. All frames must share
    geometry, kind and polarity mode; the first mismatching frame is named
    in the error.
    """
    ranges = select_chunks([f.empty for f in frames], POLICY_KEEP, size, stride)
    if len({(f.pixels.shape, f.kind, f.polarity_mode) for f in frames}) > 1:
        first = frames[0]
        for i, f in enumerate(frames[1:], start=1):
            if (f.width, f.height, f.channels) != (first.width, first.height, first.channels):
                raise ValueError(
                    f"frame {i}: shape {f.width}x{f.height}x{f.channels} does not match "
                    f"frame 0 ({first.width}x{first.height}x{first.channels})"
                )
            if f.kind != first.kind:
                raise ValueError(f"frame {i}: kind {f.kind!r} does not match {first.kind!r}")
            if f.polarity_mode != first.polarity_mode:
                raise ValueError(
                    f"frame {i}: polarity mode {f.polarity_mode!r} does not match "
                    f"{first.polarity_mode!r}"
                )
    return [Chunk(tuple(frames[r.start : r.stop]), r[-1]) for r in ranges]


def apply_empty_policy(chunks: Sequence[Chunk], policy: str = POLICY_KEEP) -> list[Chunk]:
    """Filter chunks per the empty-frame policy.

    ``keep`` passes everything through; ``drop_all_empty_chunks`` removes
    chunks whose every frame carries the empty flag.
    """
    # The rule of select_chunks, applied to chunks of one frame that is empty
    # when all of the chunk's frames are.
    return [chunks[r.start] for r in select_chunks([c.all_empty for c in chunks], policy, 1)]
