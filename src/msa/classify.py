"""Nearest-neighbour classification and accuracy reporting.

``nn_classify`` returns exactly the labels of ``cdist(test, train,
"sqeuclidean").argmin(axis=1)``, lowest training index first on ties, but
forms that direct distance matrix only for the rows that need it.  It ranks
training samples by the BLAS form of the squared distance: a matrix product
``G = test @ train.T``, turned in place into half of ``||b||^2 - 2 a.b``
(``||a||^2`` is constant along a row, so it does not move the row's
argmin).  A row whose best entry beats its second best by more than twice a
stated rounding bound has provably the same nearest sample as the direct
form that ``scipy.spatial.distance.cdist`` computes.  Three stages each take
the rows that the one before left unsettled:

1. float32.  Both inputs are scaled by one power of two, so that the
   largest magnitude lies in [0.5, 1), and rounded into float32 copies; the
   bound also covers that rounding and float32 underflow.  Only rows of at
   most ``_MAX_FLOAT32_WIDTH`` (1024) numbers take this stage: the bound
   grows with the width d, and at d = 4096 it left about half of the rows
   of a DeCAF-like pair to be screened twice.  Inputs whose largest
   magnitude lies outside 2^-400..2^400 skip it too.
2. float64, on the unscaled rows.
3. ``cdist``, on the rows that are ties or near ties in float64.

A G whose float64 form would exceed ``_MAX_WHOLE_BYTES`` (32 MiB) is formed
in blocks of h test rows, h = max(1, _BLOCK_BYTES // (s N_train)) for
numbers of s bytes, and each block is reduced while it is still in cache,
so at most one ``_BLOCK_BYTES`` (2 MiB) block of G is held.  Blocking pays
only while the width d is below h, since each block's product reads all of
the training rows again.  For d >= h, or a float64 G of at most 32 MiB, all
test rows form one block, the whole N_test x N_train G.  No bound depends on
the blocking, so the labels are exactly ``cdist``'s either way.

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
# The largest G that is formed whole even when it could be blocked.  32 MiB
# is glibc's largest dynamic mmap threshold on 64-bit systems, not a cache
# size: a smaller G can come from the heap, where one call's G is handed
# back to the next, while a larger one is mapped, and its pages faulted in,
# on every call.  Blocks ran from 7% faster to 25% slower than one block for
# G of 8.6-32 MB, and 19-35% faster for G of 34.6-57.6 MB.  Measured on a
# 2-core Xeon with OpenBLAS at widths 20-100.
_MAX_WHOLE_BYTES = 32 << 20
# The widest rows that are screened in float32 before float64.  The float32
# bound grows with d, so wider rows are more often left to float64 and
# screened twice.  Over six NA pairs of generated four-domain data (157 to
# 1123 rows a side; seeds 5 and 7, surf-like and DeCAF-like), the two
# stages took 0.84-0.93 of the time of float64 alone at d = 800 and 1024,
# with 4-10% of the rows left to float64; 0.93-1.06 at d = 1280-1536
# (8-16%); 1.09-1.20 at d = 2048 (14-24%); and 1.44 at d = 4096 (49%).
# Measured on a 2-core Xeon with OpenBLAS.
_MAX_FLOAT32_WIDTH = 1024


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
    n_test, d = a.shape
    screens = (_screen_float32, _screen_float64) if d <= _MAX_FLOAT32_WIDTH else (_screen_float64,)
    nearest = np.empty(n_test, dtype=np.intp)
    left = np.arange(n_test)  # the rows no screen has settled yet
    with np.errstate(over="ignore", invalid="ignore"):
        for screen in screens:
            best, unsettled = screen(a if left.size == n_test else a[left], b)
            nearest[left] = best
            left = left[unsettled]
            if not left.size:
                break
    if left.size:
        nearest[left] = cdist(a[left], b, "sqeuclidean").argmin(axis=1)
    return PredictionResult(predictions=train.labels[nearest])


def _screen_float32(a: np.ndarray, b: np.ndarray):
    """Stage 1: the screen in float32, on both inputs scaled by one power of
    two.  Returns each row's nearest index and whether it is unsettled."""
    d = a.shape[1]
    top = max(a.max(), -a.min(), b.max(), -b.min())
    exponent = int(np.frexp(top)[1])  # 2^(exponent - 1) <= top < 2^exponent
    if abs(exponent) > 400:  # cdist itself may overflow or underflow; see below
        return np.zeros(a.shape[0], dtype=np.intp), np.ones(a.shape[0], dtype=bool)
    # Scaling by a power of two is exact, so the data times 2^j gives the
    # same float32 copies; with every magnitude below 1, no float32 sum can
    # overflow.  np.multiply rounds each scaled entry into the float32 copy
    # once, without a scaled float64 copy.
    scale = np.ldexp(1.0, -exponent)
    a32 = np.multiply(a, scale, out=np.empty(a.shape, dtype=np.float32))
    b32 = np.multiply(b, scale, out=np.empty(b.shape, dtype=np.float32))
    half_sq_b = 0.5 * np.einsum("ij,ij->i", b32, b32)
    # The bound, in the scaled units of ||a - b||^2, with u = eps32 / 2 and
    # S_i = ||a_i||^2 + max_j ||b_j||^2 read off the copies.  As derived in
    # _screen_float64, a row keeps cdist's label once half of its gap
    # exceeds E + E', the errors of each candidate's 2 g in this form and in
    # cdist:
    # * E: forming 2 g from the copies in float32 is off by about
    #   (d + 1) eps32 S_i.  Rounding the inputs to float32 moves each entry
    #   by at most u times its size, so it moves a.b and ||b||^2 by about
    #   2 u times their sums of absolute terms, and 2 g by 2 eps32 S_i more.
    # * E': cdist, in float64, is off by about (d + 2) eps64 S_i, which is
    #   below eps32 S_i.
    # bound_i = 4 (d + 3) eps32 S_i, stage 2's 4 (d + 2) in float32's eps
    # plus twice the input-rounding term, exceeds twice the first-order
    # E + E' < (d + 4) eps32 S_i, so it keeps at least stage 2's spare
    # factor.  Each float32 rounding that underflows, flushed to zero or
    # not, is off by less than tiny32; with every scaled entry below 1 that
    # moves 2 g by at most about 12 (d + 1) tiny32, and the 32 (d + 3)
    # tiny32 term covers twice that.  cdist's own underflow, at most
    # d 2^-1075 before scaling, is below d 2^-275 here for |exponent| <=
    # 400, far under that term, and cdist cannot overflow there
    # (d 2^802 < 2^1024).
    eps, tiny = np.finfo(np.float32).eps, np.finfo(np.float32).tiny
    sq_a = np.einsum("ij,ij->i", a32, a32)
    bound = 4 * (d + 3) * (eps * (sq_a + 2 * half_sq_b.max()) + 8 * tiny)
    return _screen(a32, b32, half_sq_b, bound)


def _screen_float64(a: np.ndarray, b: np.ndarray):
    """Stage 2: the screen in float64, on the unscaled inputs.  Returns each
    row's nearest index and whether it is unsettled."""
    d = a.shape[1]
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
    return _screen(a, b, half_sq_b, bound)


def _screen(a: np.ndarray, b: np.ndarray, half_sq_b: np.ndarray, bound: np.ndarray):
    """Each row's nearest row of ``b`` under the G form, and whether its gap
    fails to exceed twice ``bound``, block by block in ``a``'s precision."""
    n_test, n_train = a.shape[0], b.shape[0]
    # A block of h rows keeps h entries of G per training row in cache, and
    # its product re-packs the d entries of that row.  Blocking pays only
    # while d < h and G is too large to be formed whole.  That size is
    # judged on the float64 G whichever precision forms it, so memory stays
    # as it was: a whole float32 G of 2000 x 2400 (19.2 MB) ran adapt-tall
    # 15-20% faster, but raised its peak RSS from 74 to 91 MB.
    height = max(1, _BLOCK_BYTES // (a.itemsize * n_train))
    if a.shape[1] >= height or 8 * n_test * n_train <= _MAX_WHOLE_BYTES:
        height = n_test
    nearest = np.empty(n_test, dtype=np.intp)
    unsettled = np.empty(n_test, dtype=bool)
    buffer = np.empty((min(height, n_test), n_train), dtype=a.dtype)
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
        unsettled[lo:hi] = ~(half_gap > bound[lo:hi])  # gap > 2 bound_i
    return nearest, unsettled


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
