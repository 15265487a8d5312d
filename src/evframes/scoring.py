"""Aggregation of per-chunk class scores into one video-level prediction.

Scores are accepted raw (logits or probabilities; no softmax is applied) and
averaged class-wise over chunks. Summation runs in chunk-index order so the
floating-point result is bit-reproducible regardless of input order. A class
whose sum overflows float64 has its mean taken over scores scaled down by
their largest magnitude instead, so every mean is finite. The
predicted label is the argmax with lowest-index tie-break.
:func:`pool_in_chunk_order` is that rule, over vectors already in
chunk-index order: it holds one vector and K running sums, and reads the
vectors a second time only for an overflowing class's scores.
:func:`temporal_average_pool` sorts its vectors into it; ``evframes
aggregate`` feeds it a ``formats.ScoreTableReader``, whose rows ascend.

Vectors and predictions store their scores once, as a tuple of Python
floats in ``values``, and build a new float64 array from it on each read of
``scores`` or ``mean_scores``. Parsing and pooling a score table therefore
need no numpy unless a class's sum overflows.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from .options import as_int

if TYPE_CHECKING:
    import numpy as np


class ScoreVector:
    """Class scores for one chunk: a non-empty vector of finite floats.

    ``values`` is the scores copied into a tuple of Python floats when the
    vector is built, and ``scores`` a new float64 array of them on each
    read. A list of Python floats, as ``formats.parse_scores`` gives, is
    taken as it is; any other value is converted by ``numpy.asarray(scores,
    dtype=numpy.float64)``. ``chunk_index`` is a Python int.
    """

    __slots__ = ("values", "chunk_index")

    def __init__(self, scores, chunk_index: int):
        self.values = _finite_floats(scores)
        self.chunk_index = as_int(chunk_index, "chunk index")

    @property
    def scores(self) -> np.ndarray:
        import numpy as np

        return np.array(self.values, dtype=np.float64)

    def __repr__(self) -> str:
        return f"ScoreVector(scores={self.scores!r}, chunk_index={self.chunk_index!r})"


class VideoPrediction:
    """Mean class scores over all chunks plus the winning label.

    ``values`` and ``mean_scores`` are as ``ScoreVector``'s ``values`` and
    ``scores``; ``label`` is a Python int, an index into them.
    """

    __slots__ = ("values", "label", "label_name")

    def __init__(self, mean_scores, label: int, label_name: str | None = None):
        self.values = _finite_floats(mean_scores)
        self.label = as_int(label, "label")
        if self.label not in range(len(self.values)):
            raise ValueError(f"label must lie in range({len(self.values)}), got {self.label}")
        self.label_name = label_name

    @property
    def mean_scores(self) -> np.ndarray:
        import numpy as np

        return np.array(self.values, dtype=np.float64)

    def __repr__(self) -> str:
        names = f"label={self.label!r}, label_name={self.label_name!r}"
        return f"VideoPrediction(mean_scores={self.mean_scores!r}, {names})"


def _finite_floats(scores) -> tuple[float, ...]:
    """A non-empty vector of finite scores as a tuple of Python floats, as ScoreVector takes it."""
    if not (isinstance(scores, list) and all(type(s) is float for s in scores)):
        import numpy as np

        scores = np.asarray(scores, dtype=np.float64)
        scores = scores.tolist() if scores.ndim == 1 else []
    if not scores:
        raise ValueError("scores must be a non-empty vector")
    if not all(map(math.isfinite, scores)):
        raise ValueError("scores must be finite")
    return tuple(scores)


def temporal_average_pool(
    vectors: Iterable[ScoreVector], class_names: Sequence[str] | None = None
) -> VideoPrediction:
    """Average score vectors over chunks and pick the argmax label.

    The vectors are sorted by chunk index and pooled by
    :func:`pool_in_chunk_order`. All must share the same length K; the
    offending chunk_index is named otherwise. An empty sequence is an error.
    """
    mean, label = pool_in_chunk_order(sorted(vectors, key=lambda v: v.chunk_index))
    if class_names is not None and len(class_names) != len(mean):
        raise ValueError(f"got {len(class_names)} class names for {len(mean)} classes")
    name = class_names[label] if class_names is not None else None
    return VideoPrediction(mean, label, name)


def pool_in_chunk_order(vectors: Iterable[ScoreVector]) -> tuple[list[float], int]:
    """The class-wise mean of score vectors given in chunk-index order, and its argmax.

    One pass keeps a running sum per class, from 0.0. Only when a class's
    sum overflows is vectors gone through again, for that class's scores,
    so an iterable given here must give the same vectors twice. The label is
    the lowest index of the largest mean. Raises ValueError when there are
    no vectors, or on the first vector whose length is not the first's.
    """
    total = None
    n = 0
    for v in vectors:
        row = v.values
        if total is None:
            k = len(row)
            total = [0.0] * k
        elif len(row) != k:
            raise ValueError(
                f"chunk {v.chunk_index}: score vector has {len(row)} classes, expected {k}"
            )
        total = [a + b for a, b in zip(total, row)]  # an overflow gives inf, not an error
        n += 1
    if total is None:
        raise ValueError("no chunks to aggregate")
    mean = [s / n for s in total]
    over = [i for i, m in enumerate(mean) if not math.isfinite(m)]
    if over:
        import numpy as np

        # The scores are finite, so only the sum overflowed. Scaled by each
        # class's largest magnitude, the scores sum to at most n in
        # magnitude, so neither the sum nor the mean overflows.
        scores = np.fromiter(
            (v.values[i] for v in vectors for i in over), np.float64, n * len(over)
        ).reshape(n, len(over))
        scale = np.abs(scores).max(axis=0)
        rescaled = (scores / scale).sum(axis=0) / n * scale
        for i, m in zip(over, rescaled.tolist()):
            mean[i] = m
    label = max(range(k), key=mean.__getitem__)  # max keeps the lowest index on ties
    return mean, label
