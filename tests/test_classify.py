"""Nearest-neighbour classification and accuracy scoring."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import msa.classify
from msa import AdaptationConfig, adapt
from msa.classify import evaluate_accuracy, nn_classify
from msa.exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from msa.subspace import FeatureMatrix
from msa.synthetic import planted_benchmark


def _nearest(train, test):
    """nn_classify's nearest training index per test row (labels = indices)."""
    train = np.asarray(train, dtype=float)
    labels = np.arange(train.shape[0])
    return nn_classify(FeatureMatrix(train, labels), FeatureMatrix(test)).predictions


def _cdist_nearest(train, test):
    return cdist(np.asarray(test, float), np.asarray(train, float), "sqeuclidean").argmin(axis=1)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Count the test rows nn_classify hands to cdist."""
    rows = []

    def counting(a, b, *args, **kwargs):
        rows.append(a.shape[0])
        return cdist(a, b, *args, **kwargs)

    monkeypatch.setattr(msa.classify, "cdist", counting)
    return rows


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


class TestExactness:
    """nn_classify returns cdist's argmin exactly, lowest index on ties."""

    def test_duplicate_rows_go_to_lowest_index(self, rng, fallback_rows):
        base = rng.normal(size=(15, 6))
        train = np.vstack([base, base, base])  # every row three times
        test = np.vstack([base, rng.normal(size=(10, 6))])
        nearest = _nearest(train, test)
        assert np.all(nearest < 15)
        assert np.array_equal(nearest[:15], np.arange(15))
        assert np.array_equal(nearest, _cdist_nearest(train, test))
        # Every row is an exact tie, so every row fell back.
        assert sum(fallback_rows) == test.shape[0]

    def test_near_ties_fall_back(self, rng, fallback_rows):
        """Candidates closer than the rounding bound are ranked by cdist.

        A large common offset makes the GEMM form cancel: its entries are
        about 1e16, so their rounding error exceeds the distances, which are
        about 1.  Only the fallback can rank these candidates.
        """
        offset = 1e8
        train = offset + rng.normal(size=(40, 4))
        test = offset + rng.normal(size=(30, 4))
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert sum(fallback_rows) == 30
        # Two candidates one ulp apart: a genuine near tie at unit scale.
        fallback_rows.clear()
        x = rng.normal(size=5)
        train = np.vstack([np.nextafter(x, np.inf), x, x + 1.0])
        test = x[None, :] + 1e-3
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert fallback_rows == [1]

    def test_settled_rows_skip_cdist(self, rng, fallback_rows):
        train = rng.normal(size=(50, 8))
        test = rng.normal(size=(40, 8))
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert fallback_rows == []

    def test_single_training_sample(self, rng, fallback_rows):
        train = FeatureMatrix(rng.normal(size=(1, 3)), [4])
        test = FeatureMatrix(rng.normal(size=(6, 3)))
        assert np.array_equal(nn_classify(train, test).predictions, [4] * 6)
        assert fallback_rows == []

    def test_width_one_features(self, rng):
        """1-d features, as when alignment keeps a single shared dimension."""
        train = rng.integers(-4, 5, size=(30, 1)).astype(float)
        test = np.arange(-5.0, 5.5, 0.5)[:, None]  # half-integers tie exactly
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        continuous = rng.normal(size=(200, 1))
        probe = rng.normal(size=(100, 1))
        assert np.array_equal(_nearest(continuous, probe), _cdist_nearest(continuous, probe))

    @pytest.mark.parametrize("scale", [1e-200, 1e150, 1e200])
    def test_extreme_scales_match_cdist(self, rng, scale):
        """Underflow and overflow in the GEMM form fall back, silently."""
        train = rng.normal(size=(20, 3)) * scale
        test = rng.normal(size=(15, 3)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nearest = _nearest(train, test)
        assert np.array_equal(nearest, _cdist_nearest(train, test))

    def test_planted_runs_take_the_fast_path(self, fallback_rows):
        """On planted seed 0 every method classifies without a cdist row."""
        source, target, _ = planted_benchmark(seed=0)
        for config in (
            AdaptationConfig(k=1, method="na"),
            AdaptationConfig(k=2, method="sa"),
            AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3),
        ):
            adapt(source, target, config)
        assert fallback_rows == []


@st.composite
def _tied_problem(draw):
    """Small-integer rows drawn from a few distinct values, so that exact
    distance ties and duplicate training rows are common."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=6,
    ))
    pick = st.integers(0, len(pool) - 1)
    train = [pool[i] for i in draw(st.lists(pick, min_size=1, max_size=25))]
    test = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=15,
    ))
    scale = draw(st.sampled_from([1.0, 0.1, 3.0, 2.0**-40, 1e5]))
    offset = draw(st.sampled_from([0.0, 0.5, 1e4]))
    return np.array(train) * scale + offset, np.array(test) * scale + offset


@settings(max_examples=300, deadline=None)
@given(problem=_tied_problem())
def test_matches_cdist_argmin(problem):
    """Differential against cdist(...).argmin(1) on tie-heavy inputs."""
    train, test = problem
    assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))


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

    def test_integral_float_labels_accepted(self):
        assert evaluate_accuracy([0, 1, 2], [0.0, 1.0, 5.0]) == pytest.approx(200.0 / 3.0)

    @pytest.mark.parametrize(
        "truth",
        [[0.9, 1.2], [0.0, np.nan], [0.0, np.inf], ["0", "1"], [0, None]],
        ids=["fractional", "nan", "inf", "strings", "none"],
    )
    def test_non_integer_labels_rejected(self, truth):
        """A cast would truncate 0.9 and 1.2 to 0 and 1 and score 100."""
        with pytest.raises(DegenerateDataError):
            evaluate_accuracy([0, 1], truth)
        with pytest.raises(DegenerateDataError):
            evaluate_accuracy(truth, [0, 1])
