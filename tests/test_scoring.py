import warnings

import numpy as np
import pytest

from evframes.scoring import ScoreVector, VideoPrediction, temporal_average_pool


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
