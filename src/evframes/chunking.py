"""Sliding groups of consecutive encoded frames (the classifier input unit).

The buffer holds 3 frames and advances one frame per step, the paper's
contract, so a sequence of N frames yields max(0, N - 2) chunks and the first
two frames of a recording never head a chunk of their own. The empty-frame
policy then keeps every chunk or drops those whose every frame is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .encoders import EncodedFrame

_CHUNK_SIZE = 3

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


def select_chunks(empty: Sequence[bool], policy: str = POLICY_KEEP) -> list[range]:
    """Frame indices of each chunk that policy keeps, over frames with these empty flags."""
    drop = _drops_all_empty(policy)
    chunks = [range(j, j + _CHUNK_SIZE) for j in range(len(empty) - _CHUNK_SIZE + 1)]
    return [r for r in chunks if not (drop and all(empty[r.start : r.stop]))]


def make_chunks(frames: Sequence[EncodedFrame]) -> list[Chunk]:
    """Group frames into overlapping chunks of 3, advancing by one frame.

    Fewer than 3 frames yield no chunks. All frames must share geometry,
    kind and polarity mode; the first mismatching frame is named in the
    error.
    """
    ranges = select_chunks([f.empty for f in frames])
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
    """Filter chunks per the empty-frame policy."""
    drop = _drops_all_empty(policy)
    return [c for c in chunks if not (drop and c.all_empty)]


def _drops_all_empty(policy: str) -> bool:
    """The empty-frame policy rule: ``keep`` keeps every chunk, and
    ``drop_all_empty_chunks`` drops the chunks whose every frame is empty."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    return policy == POLICY_DROP_ALL_EMPTY
