import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evframes.cli import main
from evframes.formats import write_scores
from evframes.scoring import (
    ScoreVector, VideoPrediction, pool_in_chunk_order, temporal_average_pool,
)

from tests.oracles import temporal_average_pool_numpy

# A column whose sum overflows, so that its mean is rescaled, and whose rescaled
# sum numpy takes pairwise: a sequential sum ends in ...995e+306, not 7.56e+306.
PAIRWISE_COLUMN = [
    4.99e307, -2.73e307, -7.28e307, 9.45e307, 3.66e307,
    7.04e307, 4.39e307, -7.93e307, -7.78e307, 3.75e307,
]


@st.composite
def score_tables(draw):
    """(rows, chunk indices in any order) of finite scores, huge ones included."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    score = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 1.0, 1.7e308, -1.7e308, 5e-324, -5e-324]
    )
    rows = draw(st.lists(st.lists(score, min_size=k, max_size=k), min_size=n, max_size=n))
    indices = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n, unique=True))
    return rows, indices


class TestTemporalAveragePool:
    def test_two_vector_mean(self):
        result = temporal_average_pool(
            [ScoreVector([0.2, 0.8], 0), ScoreVector([0.4, 0.6], 1)]
        )
        np.testing.assert_allclose(result.mean_scores, [0.3, 0.7])
        assert result.label == 1

    def test_single_vector_is_identity(self):
        v = ScoreVector([0.1, 0.5, 0.4], 7)
        result = temporal_average_pool([v])
        np.testing.assert_array_equal(result.mean_scores, v.scores)
        assert result.label == 1

    def test_mean_matches_summation_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 12))
            raw = rng.random((n, k))
            vectors = [ScoreVector(raw[i], i) for i in range(n)]
            result = temporal_average_pool(vectors)

            oracle = np.zeros(k)
            for row in raw:
                oracle = oracle + row
            oracle /= n

            denom = np.abs(oracle)
            denom[denom == 0] = 1.0
            assert np.max(np.abs(result.mean_scores - oracle) / denom) < 1e-12
            assert result.label == int(np.argmax(oracle))

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(55)
        vectors = [ScoreVector(rng.random(5), i) for i in range(10)]
        base = temporal_average_pool(vectors)
        for _ in range(20):
            perm = rng.permutation(len(vectors))
            shuffled = [vectors[i] for i in perm]
            result = temporal_average_pool(shuffled)
            np.testing.assert_array_equal(result.mean_scores, base.mean_scores)
            assert result.label == base.label

    def test_argmax_tie_prefers_lowest_index(self):
        result = temporal_average_pool([ScoreVector([0.5, 0.5, 0.0], 0)])
        assert result.label == 0

    def test_label_is_scale_equivariant(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            raw = rng.normal(size=(6, 5))
            base = temporal_average_pool([ScoreVector(raw[i], i) for i in range(6)])
            for alpha in (0.001, 3.0, 1e6):
                scaled = temporal_average_pool(
                    [ScoreVector(raw[i] * alpha, i) for i in range(6)]
                )
                assert scaled.label == base.label

    def test_mean_bounded_by_per_class_extremes(self):
        rng = np.random.default_rng(78)
        raw = rng.normal(size=(9, 4))
        result = temporal_average_pool([ScoreVector(raw[i], i) for i in range(9)])
        assert np.all(result.mean_scores >= raw.min(axis=0))
        assert np.all(result.mean_scores <= raw.max(axis=0))

    def test_overflowing_sums_give_finite_means(self):
        vectors = [ScoreVector([1.5e308, 1.7e308], i) for i in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = temporal_average_pool(vectors)
        assert result.mean_scores.tolist() == [1.5e308, 1.7e308]
        assert result.label == 1

    def test_only_overflowing_classes_are_recomputed(self):
        rows = [[1e308, 0.1, -1e308], [1e308, 0.2, -1e308], [1e308, 0.3, -1e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = temporal_average_pool([ScoreVector(r, i) for i, r in enumerate(rows)])
        assert result.mean_scores[1] == (0.1 + 0.2 + 0.3) / 3  # the chunk-ordered sum
        np.testing.assert_allclose(result.mean_scores[[0, 2]], [1e308, -1e308], rtol=1e-15)
        assert result.label == 0

    def test_class_names(self):
        result = temporal_average_pool(
            [ScoreVector([0.1, 0.9], 0)], class_names=["walk", "run"]
        )
        assert result.label == 1
        assert result.label_name == "run"

    def test_no_class_names_leaves_name_unset(self):
        result = temporal_average_pool([ScoreVector([1.0], 0)])
        assert result.label_name is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no chunks to aggregate"):
            temporal_average_pool([])

    def test_mismatched_lengths_rejected(self):
        vectors = [ScoreVector([0.2, 0.8], 0), ScoreVector([0.1, 0.2, 0.7], 3)]
        with pytest.raises(ValueError, match="chunk 3"):
            temporal_average_pool(vectors)

    def test_class_name_count_must_match(self):
        with pytest.raises(ValueError, match="class names"):
            temporal_average_pool([ScoreVector([0.2, 0.8], 0)], class_names=["only"])


class TestOnePoolingRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(score_tables())
    @example(([[1.5e308, 0.1, -1e308], [1.5e308, 0.2, -1e308]], [0, 1]))  # overflowing classes
    @example(([[v] for v in PAIRWISE_COLUMN], list(range(10))))  # one column, pairwise sum
    @example(([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]], [0, 1]))  # a tie
    @example(([[-0.0, -0.0], [-5e-324, 0.0], [0.0, 0.0]], [0, 1, 2]))  # -0.0, and a -0.0 mean
    @example(([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], [7, -3, 2]))  # chunk indices out of order
    def test_pool_matches_numpy_oracle_and_cli(self, table):
        rows, indices = table
        pooled = temporal_average_pool([ScoreVector(r, i) for r, i in zip(rows, indices)])
        from_arrays = temporal_average_pool(
            [ScoreVector(np.array(r), i) for r, i in zip(rows, indices)]
        )
        mean, label = temporal_average_pool_numpy(
            [ScoreVector(r, i) for r, i in zip(rows, indices)]
        )
        assert pooled.mean_scores.tobytes() == mean.tobytes()
        assert from_arrays.mean_scores.tobytes() == mean.tobytes()
        assert pooled.label == from_arrays.label == label
        # `evframes aggregate` prints the same means and label.
        vectors = [ScoreVector(r, i) for r, i in zip(rows, indices)]
        with tempfile.TemporaryDirectory() as d:
            table_path, out = Path(d, "scores.txt"), Path(d, "prediction.txt")
            table_path.write_text(write_scores(vectors))
            assert main(["aggregate", str(table_path), "-o", str(out)]) == 0
            printed = out.read_text()
        means = " ".join(repr(float(m)) for m in mean)
        assert printed == f"mean_scores: {means}\nlabel: {label}\n"

    def test_pairwise_example_needs_numpy_sum(self):
        # The example above is one that a sequential rescaled sum gets wrong.
        col = np.array(PAIRWISE_COLUMN)
        scale = np.abs(col).max()
        total = 0.0
        for v in (col / scale).tolist():
            total += v
        assert total / len(col) * scale != temporal_average_pool_numpy(
            [ScoreVector([v], i) for i, v in enumerate(PAIRWISE_COLUMN)]
        )[0][0]


class Passes:
    """Re-iterable vectors that count the passes made over them."""

    def __init__(self, vectors):
        self.vectors, self.count = vectors, 0

    def __iter__(self):
        self.count += 1
        return iter(self.vectors)


class TestPoolInChunkOrder:
    @pytest.mark.parametrize(
        "rows,passes,pooled",
        [
            ([[0.5, 1.0], [0.25, 2.0]], 1, ([0.375, 1.5], 1)),
            ([[1.5e308, 1.0], [1.5e308, 2.0]], 2, ([1.5e308, 1.5], 0)),
        ],
        ids=["finite", "overflow"],
    )
    def test_a_second_pass_only_for_an_overflowing_class(self, rows, passes, pooled):
        vectors = Passes([ScoreVector(r, i) for i, r in enumerate(rows)])
        assert pool_in_chunk_order(vectors) == pooled
        assert vectors.count == passes

    def test_sums_start_from_positive_zero(self):
        # A sum started from the first row would keep its -0.0.
        (mean,), _ = pool_in_chunk_order([ScoreVector([-0.0], 0)])
        assert repr(mean) == "0.0"


class TestScoreVector:
    def test_scores_are_float64(self):
        v = ScoreVector([1, 2, 3], 0)
        assert v.scores.dtype == np.float64

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreVector([0.5, np.inf], 0)
        with pytest.raises(ValueError, match="finite"):
            ScoreVector([np.nan], 0)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScoreVector([], 0)

    def test_prediction_is_plain_container(self):
        p = VideoPrediction(np.array([0.3, 0.7]), 1, "run")
        assert p.label == 1
        assert p.label_name == "run"

    def test_values_are_python_floats_and_index_a_python_int(self):
        v = ScoreVector(np.array([1, 2], dtype=np.int32), np.int64(3))
        assert v.values == (1.0, 2.0) and all(type(s) is float for s in v.values)
        assert type(v.chunk_index) is int and v.chunk_index == 3

    @pytest.mark.parametrize("index", [1.5, "1", None])
    def test_chunk_index_must_be_an_integer(self, index):
        with pytest.raises(ValueError, match=rf"^chunk index must be an integer, got {index!r}$"):
            ScoreVector([1.0, 2.0], index)

    def test_caller_edits_to_its_array_do_not_reach_the_vector(self):
        scores = np.array([0.0, 0.25, 0.75])
        v = ScoreVector(scores, 0)
        scores[1] = np.nan
        assert write_scores([v]) == "# k=3\n0,0.0,0.25,0.75\n"
        assert temporal_average_pool([v]).mean_scores.tolist() == [0.0, 0.25, 0.75]

    def test_each_read_of_scores_is_a_new_array(self):
        v = ScoreVector([0.25, 0.75], 1)
        v.scores[1] = np.inf
        assert v.scores is not v.scores
        assert temporal_average_pool([v]).mean_scores.tolist() == [0.25, 0.75]

    def test_each_read_of_mean_scores_is_a_new_float64_array(self):
        p = VideoPrediction([0.3, 0.7], 1)
        assert isinstance(p.mean_scores, np.ndarray) and p.mean_scores.dtype == np.float64
        p.mean_scores[0] = 9.0
        assert p.mean_scores.tolist() == [0.3, 0.7] and p.values == (0.3, 0.7)

    def test_prediction_refuses_scores_that_are_not_numbers(self):
        with pytest.raises(ValueError):
            VideoPrediction("ab", 1)

    @pytest.mark.parametrize("label", [5, 1, -1])
    def test_prediction_label_must_index_a_class(self, label):
        with pytest.raises(ValueError, match=rf"^label must lie in range\(1\), got {label}$"):
            VideoPrediction([0.3], label)

    def test_prediction_label_is_a_python_int(self):
        with pytest.raises(ValueError, match=r"^label must be an integer, got 1.0$"):
            VideoPrediction([0.3, 0.7], 1.0)
        p = VideoPrediction([0.3, 0.7], np.int64(1))
        assert type(p.label) is int and p.label == 1

    @pytest.mark.parametrize(
        "means,message",
        [
            (np.zeros((2, 2)), "scores must be a non-empty vector"),
            ([], "scores must be a non-empty vector"),
            ([0.3, np.inf], "scores must be finite"),
        ],
        ids=["2d", "empty", "infinite"],
    )
    def test_prediction_checks_its_means_as_a_score_vector_does(self, means, message):
        for build in (ScoreVector, VideoPrediction):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(means, 0)
