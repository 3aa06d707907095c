"""Nearest-neighbour classification and accuracy reporting.

``nn_classify`` ranks training samples by the BLAS form of the squared
distance: a matrix product ``G = test @ train.T``, turned in place into half
of ``||b||^2 - 2 a.b`` (``||a||^2`` is constant along a row, so it does not
move the row's argmin).  A row whose best entry beats its second best by
more than twice a stated rounding bound has provably the same nearest
sample as the direct form that ``scipy.spatial.distance.cdist`` computes;
the other rows, ties and near ties, are recomputed with ``cdist``.  So the
predictions are exactly those of ``cdist(test, train,
"sqeuclidean").argmin(axis=1)``, lowest training index first on ties.

A G of more than ``_MAX_WHOLE_BYTES`` (32 MiB) is formed in blocks of h
test rows, h = max(1, _BLOCK_BYTES // (8 N_train)), and each block is
reduced while it is still in cache, so at most one ``_BLOCK_BYTES`` (2 MiB)
block of G is held.  Blocking pays only while the width d is below h, since
each block's product reads all of the training rows again.  For d >= h, or
a G of at most 32 MiB, all test rows form one block, the whole N_test x
N_train G.  The bound does not depend on the blocking, so the labels are
exactly ``cdist``'s either way.

scipy is imported by the first near tie, not with this module: ``import
msa`` loads numpy alone, and most inputs never have a near tie."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from .subspace import FeatureMatrix, _integer_labels

# Bytes of G computed per block of test rows: one core's L2 (2 MiB) on the
# machine the benchmark is measured on.
_BLOCK_BYTES = 2 << 20
# The largest G that is formed whole even when it could be blocked.  Up to
# 32 MiB the allocator hands one call's G back to the next (glibc maps fresh
# pages only from 32 MiB up), and blocks ran from 7% faster to 25% slower
# than one block (G of 8.6-32 MB); above it each call maps and faults all of
# G, and blocks ran 19-35% faster (34.6-57.6 MB).  Measured on a 2-core Xeon
# with OpenBLAS at widths 20-100.
_MAX_WHOLE_BYTES = 32 << 20


def cdist(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """``scipy.spatial.distance.cdist``, imported on the first call."""
    from scipy.spatial import distance

    return distance.cdist(a, b, metric)


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

    Distance ties are broken by the lowest training-sample index.  The
    result equals ``cdist``'s argmin exactly; see the module docstring.

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
    a, b = test.data, train.data
    n_test, n_train, d = a.shape[0], b.shape[0], b.shape[1]
    # A block of h rows keeps h words of G per training row in cache, and its
    # product re-packs the d words of that row.  Blocking pays only while
    # d < h and G is too large to be formed whole (see _MAX_WHOLE_BYTES).
    height = max(1, _BLOCK_BYTES // (8 * n_train))
    if d >= height or 8 * n_test * n_train <= _MAX_WHOLE_BYTES:
        height = n_test
    nearest = np.empty(n_test, dtype=np.intp)
    near_tie = np.empty(n_test, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        half_sq_b = 0.5 * np.einsum("ij,ij->i", b, b)
        # Rounding bound, in the units of ||a - b||^2.  Let u = eps/2,
        # gamma_n = n u / (1 - n u) and, for test row i,
        # S_i = ||a_i||^2 + max_j ||b_j||^2, so that ||a_i - b_j||^2 <= 2 S_i
        # and ||b_j||^2 + 2 |a_i.b_j| <= 2 S_i.
        # * This form: the dot product and ||b_j||^2 are each off by at most
        #   gamma_d times their sums of absolute terms, in any summation
        #   order, with or without FMA; the subtraction adds one rounding and
        #   the halving is exact.  So 2 g is off by at most
        #   E <= (gamma_d + u)(1 + gamma_d) 2 S_i, about (d + 1) eps S_i.
        # * cdist sums d rounded squares of rounded differences, so it is off
        #   by at most E' <= gamma_(d+2) ||a_i - b_j||^2, about (d + 2) eps S_i.
        # When the gap between the two smallest entries of 2 g exceeds
        # 2 (E + E'), every other column of cdist's row exceeds the entry at
        # `nearest`, so cdist's argmin is `nearest`.  bound_i = 4 (d + 2) eps
        # S_i exceeds twice the first-order E + E' = (2d + 3) eps S_i; the
        # spare factor covers the 1/(1 - n u) terms and the roundings of the
        # norms, the gap and the bound.  The `tiny` term covers gradual
        # underflow, whose absolute error is at most eps * tiny per rounding.
        # A non-finite gap or bound fails the test, so overflow falls back
        # too.  Nothing here depends on how the rows are split into blocks.
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
        sq_a = np.einsum("ij,ij->i", a, a)
        bound = 4 * (d + 2) * eps * (sq_a + 2 * half_sq_b.max() + tiny)
        buffer = np.empty((min(height, n_test), n_train))
        for lo in range(0, n_test, height):
            hi = min(lo + height, n_test)
            g, rows = buffer[: hi - lo], np.arange(hi - lo)
            np.matmul(a[lo:hi], b.T, out=g)  # the only block of G held
            np.subtract(half_sq_b, g, out=g)  # g = (||b||^2 - 2 a.b) / 2
            best_index = g.argmin(axis=1)
            best = g[rows, best_index]
            g[rows, best_index] = np.inf
            half_gap = g.min(axis=1) - best
            nearest[lo:hi] = best_index
            near_tie[lo:hi] = ~(half_gap > bound[lo:hi])  # gap > 2 bound_i
    if near_tie.any():
        nearest[near_tie] = cdist(a[near_tie], b, "sqeuclidean").argmin(axis=1)
    return PredictionResult(predictions=train.labels[nearest])


def evaluate_accuracy(predictions, truth) -> float:
    """Exact-match accuracy as a percentage.

    Args:
        predictions: predicted integer labels.
        truth: ground-truth integer labels of the same length; integral
            floats such as 1.0 count, 1.7 raises DegenerateDataError.

    Returns:
        100 * mean(predictions == truth).
    """
    pred = _integer_labels(predictions)
    true = _integer_labels(truth)
    if pred.shape != true.shape or pred.ndim != 1:
        raise DimensionMismatchError(
            f"predictions of shape {pred.shape} do not match truth of shape {true.shape}"
        )
    if pred.size == 0:
        raise DegenerateDataError("cannot score an empty prediction vector")
    return 100.0 * float(np.mean(pred == true))
