"""Aggregation of per-chunk class scores into one video-level prediction.

Scores are accepted raw (logits or probabilities; no softmax is applied) and
averaged class-wise over chunks. Summation runs in chunk-index order so the
floating-point result is bit-reproducible regardless of input order. A class
whose sum overflows float64 has its mean taken over scores scaled down by
their largest magnitude instead, so every mean is finite. The
predicted label is the argmax with lowest-index tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ScoreVector:
    """Class scores for one chunk."""

    scores: np.ndarray
    chunk_index: int

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("scores must be a non-empty vector")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class VideoPrediction:
    """Mean class scores over all chunks plus the winning label."""

    mean_scores: np.ndarray
    label: int
    label_name: str | None = None


def temporal_average_pool(
    vectors: Sequence[ScoreVector], class_names: Sequence[str] | None = None
) -> VideoPrediction:
    """Average score vectors over chunks and pick the argmax label.

    All vectors must share the same length K; the offending chunk_index is
    named otherwise. An empty sequence is an error.
    """
    if len(vectors) == 0:
        raise ValueError("no chunks to aggregate")
    ordered = sorted(vectors, key=lambda v: v.chunk_index)
    k = len(ordered[0].scores)
    for v in ordered:
        if len(v.scores) != k:
            raise ValueError(
                f"chunk {v.chunk_index}: score vector has {len(v.scores)} classes, expected {k}"
            )
    if class_names is not None and len(class_names) != k:
        raise ValueError(f"got {len(class_names)} class names for {k} classes")
    total = np.zeros(k, dtype=np.float64)
    with np.errstate(over="ignore"):
        for v in ordered:
            total += v.scores
    mean = total / len(ordered)
    over = ~np.isfinite(mean)  # the scores are finite, so only the sum overflowed
    if over.any():
        # Scaled by each class's largest magnitude, the scores sum to at
        # most n in magnitude, so neither the sum nor the mean overflows.
        scores = np.array([v.scores[over] for v in ordered])
        scale = np.abs(scores).max(axis=0)
        mean[over] = (scores / scale).sum(axis=0) / len(ordered) * scale
    label = int(np.argmax(mean))  # argmax takes the lowest index on ties
    name = class_names[label] if class_names is not None else None
    return VideoPrediction(mean, label, name)
