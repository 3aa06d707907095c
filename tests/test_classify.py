"""Nearest-neighbour classification and accuracy scoring."""

import numpy as np
import pytest

from msa.classify import evaluate_accuracy, nn_classify
from msa.exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from msa.subspace import FeatureMatrix


class TestNnClassify:
    def test_matches_brute_force(self, rng):
        """Twenty random instances against a double-loop reference."""
        for _ in range(20):
            n_train = int(rng.integers(1, 40))
            n_test = int(rng.integers(1, 30))
            d = int(rng.integers(1, 8))
            train = rng.normal(size=(n_train, d))
            labels = rng.integers(0, 4, size=n_train)
            test = rng.normal(size=(n_test, d))
            result = nn_classify(
                FeatureMatrix(train, labels), FeatureMatrix(test)
            )
            for i in range(n_test):
                dists = [float(np.sum((test[i] - train[j]) ** 2)) for j in range(n_train)]
                expected = labels[int(np.argmin(dists))]
                assert result.predictions[i] == expected

    def test_exact_match_wins(self):
        train = FeatureMatrix(np.array([[0.0, 0.0], [5.0, 5.0]]), [1, 2])
        test = FeatureMatrix(np.array([[5.0, 5.0]]))
        assert nn_classify(train, test).predictions[0] == 2

    def test_tie_breaks_to_lowest_train_index(self):
        train = FeatureMatrix(
            np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]), [7, 3, 9]
        )
        test = FeatureMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        result = nn_classify(train, test)
        # origin is equidistant from rows 0 and 1; row 0 wins
        assert result.predictions[0] == 7
        # rows 0 and 2 coincide; row 0 wins
        assert result.predictions[1] == 7

    def test_scale_equivariance(self, rng):
        train = rng.normal(size=(25, 4))
        labels = rng.integers(0, 3, size=25)
        test = rng.normal(size=(10, 4))
        a = nn_classify(FeatureMatrix(train, labels), FeatureMatrix(test))
        b = nn_classify(FeatureMatrix(train * 10.0, labels), FeatureMatrix(test * 10.0))
        assert np.array_equal(a.predictions, b.predictions)

    def test_test_labels_do_not_change_predictions(self):
        train = FeatureMatrix(np.array([[0.0], [10.0]]), [0, 1])
        rows = np.array([[1.0], [2.0], [9.0], [8.0]])
        labelled = nn_classify(train, FeatureMatrix(rows, [0, 1, 1, 1]))
        unlabelled = nn_classify(train, FeatureMatrix(rows))
        assert np.array_equal(labelled.predictions, [0, 0, 1, 1])
        assert np.array_equal(unlabelled.predictions, labelled.predictions)

    def test_unlabeled_train_rejected(self, rng):
        with pytest.raises(ConfigError):
            nn_classify(
                FeatureMatrix(rng.normal(size=(5, 2))),
                FeatureMatrix(rng.normal(size=(3, 2))),
            )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            nn_classify(
                FeatureMatrix(rng.normal(size=(5, 2)), [0] * 5),
                FeatureMatrix(rng.normal(size=(3, 4))),
            )

    def test_predictions_read_only(self, rng):
        result = nn_classify(
            FeatureMatrix(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0]),
            FeatureMatrix(rng.normal(size=(3, 2))),
        )
        with pytest.raises(ValueError):
            result.predictions[0] = 9


class TestEvaluateAccuracy:
    def test_perfect(self):
        assert evaluate_accuracy([1, 2, 3], [1, 2, 3]) == pytest.approx(100.0)

    def test_three_quarters(self):
        assert evaluate_accuracy([1, 1, 2, 2], [1, 1, 2, 9]) == pytest.approx(75.0)

    def test_zero(self):
        assert evaluate_accuracy([1], [2]) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate_accuracy([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateDataError):
            evaluate_accuracy([], [])
