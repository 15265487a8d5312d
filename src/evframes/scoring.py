"""Aggregation of per-chunk class scores into one video-level prediction.

Scores are accepted raw (logits or probabilities; no softmax is applied) and
averaged class-wise over chunks. Summation runs in chunk-index order so the
floating-point result is bit-reproducible regardless of input order. A class
whose sum overflows float64 has its mean taken over scores scaled down by
their largest magnitude instead, so every mean is finite. The
predicted label is the argmax with lowest-index tie-break.

Vectors and predictions keep their scores as Python floats and build their
float64 arrays when these are first read. Parsing and pooling a score table
therefore need no numpy unless a class's sum overflows.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


class ScoreVector:
    """Class scores for one chunk: ``scores`` is a non-empty float64 vector of finite values.

    Scores given as a list of Python floats, as ``formats.parse_scores``
    gives them, are checked and kept as they are until ``scores`` is first
    read. Any other value is converted by ``numpy.asarray(scores,
    dtype=numpy.float64)``, and ``scores`` is that array.
    """

    __slots__ = ("chunk_index", "_scores")

    def __init__(self, scores, chunk_index: int):
        if isinstance(scores, list) and all(type(s) is float for s in scores):
            values = scores = tuple(scores)
        else:
            import numpy as np

            scores = np.asarray(scores, dtype=np.float64)
            values = scores.tolist() if scores.ndim == 1 else []
        if not values:
            raise ValueError("scores must be a non-empty vector")
        if not all(map(math.isfinite, values)):
            raise ValueError("scores must be finite")
        self.chunk_index = chunk_index
        self._scores = scores

    @property
    def scores(self) -> np.ndarray:
        if isinstance(self._scores, tuple):
            self._scores = _float64(self._scores)
        return self._scores

    def _floats(self) -> Sequence[float]:
        """The scores as Python floats; read before ``scores``, without numpy."""
        return self._scores if isinstance(self._scores, tuple) else self._scores.tolist()

    def __repr__(self) -> str:
        return f"ScoreVector(scores={self.scores!r}, chunk_index={self.chunk_index!r})"


class VideoPrediction:
    """Mean class scores over all chunks plus the winning label.

    :func:`temporal_average_pool` gives the means as a tuple of Python
    floats, which ``mean_scores`` turns into a float64 array when it is
    first read.
    """

    __slots__ = ("label", "label_name", "_mean_scores")

    def __init__(self, mean_scores, label: int, label_name: str | None = None):
        self._mean_scores = mean_scores
        self.label = label
        self.label_name = label_name

    @property
    def mean_scores(self) -> np.ndarray:
        if isinstance(self._mean_scores, tuple):
            self._mean_scores = _float64(self._mean_scores)
        return self._mean_scores

    def _floats(self) -> Sequence[float]:
        """The means as Python floats; read before ``mean_scores``, without numpy."""
        m = self._mean_scores
        return m if isinstance(m, tuple) else m.tolist()

    def __repr__(self) -> str:
        names = f"label={self.label!r}, label_name={self.label_name!r}"
        return f"VideoPrediction(mean_scores={self.mean_scores!r}, {names})"


def _float64(values: tuple[float, ...]) -> np.ndarray:
    import numpy as np

    return np.array(values, dtype=np.float64)


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
    rows = [v._floats() for v in ordered]
    k = len(rows[0])
    for v, row in zip(ordered, rows):
        if len(row) != k:
            raise ValueError(
                f"chunk {v.chunk_index}: score vector has {len(row)} classes, expected {k}"
            )
    if class_names is not None and len(class_names) != k:
        raise ValueError(f"got {len(class_names)} class names for {k} classes")
    total = [0.0] * k
    for row in rows:
        total = [a + b for a, b in zip(total, row)]  # an overflow gives inf, not an error
    mean = [s / len(rows) for s in total]
    over = [i for i, m in enumerate(mean) if not math.isfinite(m)]
    if over:
        import numpy as np

        # The scores are finite, so only the sum overflowed. Scaled by each
        # class's largest magnitude, the scores sum to at most n in
        # magnitude, so neither the sum nor the mean overflows.
        scores = np.array([[row[i] for i in over] for row in rows])
        scale = np.abs(scores).max(axis=0)
        rescaled = (scores / scale).sum(axis=0) / len(rows) * scale
        for i, m in zip(over, rescaled.tolist()):
            mean[i] = m
    label = max(range(k), key=mean.__getitem__)  # max keeps the lowest index on ties
    name = class_names[label] if class_names is not None else None
    return VideoPrediction(tuple(mean), label, name)
