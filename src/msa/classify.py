"""Nearest-neighbour classification and accuracy reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from .subspace import FeatureMatrix


@dataclass(frozen=True, eq=False)
class PredictionResult:
    """Predicted labels for the test samples, read-only."""

    predictions: np.ndarray

    def __post_init__(self):
        predictions = np.array(self.predictions, dtype=np.int64)
        predictions.setflags(write=False)
        object.__setattr__(self, "predictions", predictions)


def nn_classify(train: FeatureMatrix, test: FeatureMatrix) -> PredictionResult:
    """Label each test sample with its Euclidean nearest training label.

    Distance ties are broken by the lowest training-sample index.

    Args:
        train: labelled training features.
        test: test features in the same dimension; their labels are not
            used (score them with :func:`evaluate_accuracy`).

    Returns:
        PredictionResult over the test samples.
    """
    if train.labels is None:
        raise ConfigError("training data must carry labels")
    if train.n_samples < 1 or test.n_samples < 1:
        raise DegenerateDataError("both training and test sets must be non-empty")
    if train.n_features != test.n_features:
        raise DimensionMismatchError(
            f"training features have dimension {train.n_features}, "
            f"test features have dimension {test.n_features}"
        )
    sq = cdist(test.data, train.data, "sqeuclidean")
    nearest = sq.argmin(axis=1)
    return PredictionResult(predictions=train.labels[nearest])


def evaluate_accuracy(predictions, truth) -> float:
    """Exact-match accuracy as a percentage.

    Args:
        predictions: predicted integer labels.
        truth: ground-truth labels of the same length.

    Returns:
        100 * mean(predictions == truth).
    """
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise DimensionMismatchError(
            f"predictions of shape {pred.shape} do not match truth of shape {true.shape}"
        )
    if pred.size == 0:
        raise DegenerateDataError("cannot score an empty prediction vector")
    return 100.0 * float(np.mean(pred == true))
