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
   largest magnitude lies in [0.5, 1), and rounded into float32 copies.
   Only rows of at most ``_MAX_FLOAT32_WIDTH`` (1024) numbers take this
   stage: the bound grows with the width d, and at d = 4096 it left about
   half of the rows of a DeCAF-like pair to be screened twice.  Inputs
   whose largest magnitude lies outside 2^-400..2^400 skip it too.
2. float64, on the unscaled rows.
3. ``cdist``, on the rows that are ties or near ties in float64.

Both screens use one bound, derived in ``_screen``.  For test row i, in the
units the screen works in and with eps and tiny of its precision,

    bound_i = 4 (d + w) (eps S_i + floor),  S_i = ||a_i||^2 + max_j ||b_j||^2,

    float64:  w = 2, floor = eps tiny
    float32:  w = 3, floor = 8 tiny

float32's larger w covers the rounding of the inputs, and its floor float32
underflow.

A G whose float64 form would exceed ``_MAX_WHOLE_BYTES`` (32 MiB) is formed
in blocks of h test rows, h = max(1, _BLOCK_BYTES // (s N_train)) for
numbers of s bytes, and each block is reduced while it is still in cache,
so at most one ``_BLOCK_BYTES`` (2 MiB) block of G is held.  Blocking pays
only while the width d is below h, since each block's product reads all of
the training rows again.  For d >= h, or a float64 G of at most 32 MiB, all
test rows form one block, the whole N_test x N_train G.  No bound depends on
the blocking, so the labels are exactly ``cdist``'s either way.

One product serves both directions of a pair.  The call with training set B
and test set A ranks G = A B^T by rows; the call with the roles swapped
ranks G^T, that is G by columns.  So when the first stage forms the whole G
and the test set carries labels (it can train the swapped call), it also
screens G's columns, against the swapped call's own bound (the one above
with a and b exchanged), and keeps that call's nearest index and unsettled
flag per row of B on B (weakly keyed by A).  The swapped call pops them as
its first stage, forms no product for it, and takes its leftovers through
the later stages as usual.  Only NA hands its domains, labels and all, to
1-NN, so in ``run_benchmark``, which runs both directions of every pair, NA
forms one product per pair instead of two.  A call that records, in one
direction only as ``msa adapt`` runs it, pays for the column screen: on
Office-Caltech-sized pairs it took 5-8% longer at d = 4096 (float64) and
about 20% at d = 800 (float32), on a 2-core Xeon with OpenBLAS.

scipy is imported by the first near tie, not with this module: ``import
msa`` loads numpy alone, and most inputs never have a near tie."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from .subspace import FeatureMatrix, _integer_labels, _scale_exponent

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
        test: test features in the same dimension; their labels do not
            move the predictions (score them with :func:`evaluate_accuracy`).
            With labels, a first stage that forms the whole product also
            screens it for ``nn_classify(test, train)``; see the module
            docstring.

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
    dtypes = (np.float32, np.float64) if d <= _MAX_FLOAT32_WIDTH else (np.float64,)
    # The first stage, if the call with the roles swapped screened it.
    recorded = test._reverse_screens.pop(train, None)
    nearest = np.empty(n_test, dtype=np.intp)
    left = np.arange(n_test)  # the rows no screen has settled yet
    with np.errstate(over="ignore", invalid="ignore"):
        for stage, dtype in enumerate(dtypes):
            if stage == 0 and recorded is not None:
                best, unsettled = recorded
            else:
                # Only a labelled test set can train the swapped call.
                reverse = stage == 0 and test.labels is not None
                best, unsettled, columns = _screen(a if left.size == n_test else a[left], b, dtype, reverse)
                if columns is not None:
                    train._reverse_screens[test] = columns
            nearest[left] = best
            left = left[unsettled]
            if not left.size:
                break
    if left.size:
        nearest[left] = cdist(a[left], b, "sqeuclidean").argmin(axis=1)
    return PredictionResult(predictions=train.labels[nearest])


def _screen(a: np.ndarray, b: np.ndarray, dtype, reverse: bool = False):
    """One stage: each row of ``a``'s nearest row of ``b`` under the G form,
    in ``dtype`` (float32 on copies scaled by one power of two, float64 on
    the inputs), and whether its gap fails to exceed twice the bound.

    When ``reverse`` asks for it and G is formed whole, also returns the
    same pair for each row of ``b`` against ``a``, screened from G's columns
    (see ``_screen_columns``); else None in its place."""
    n_test, d = a.shape
    n_train = b.shape[0]
    eps, tiny = np.finfo(dtype).eps, np.finfo(dtype).tiny
    if dtype == np.float32:
        # Taken over both inputs, the scale is the same in both directions.
        exponent = _scale_exponent(a, b)
        if abs(exponent) > 400:  # cdist itself may overflow or underflow; see below
            return np.zeros(n_test, dtype=np.intp), np.ones(n_test, dtype=bool), None
        # Scaling by a power of two is exact, so the data times 2^j gives
        # the same float32 copies; with every magnitude below 1, no float32
        # sum can overflow.  np.multiply rounds each scaled entry into the
        # float32 copy once, without a scaled float64 copy.
        scale = np.ldexp(1.0, -exponent)
        a = np.multiply(a, scale, out=np.empty(a.shape, dtype=np.float32))
        b = np.multiply(b, scale, out=np.empty(b.shape, dtype=np.float32))
        w, floor = 3, 8 * tiny
    else:
        w, floor = 2, eps * tiny
    # The bound, in the units of ||a - b||^2 that this stage works in.  Let
    # u = eps/2, gamma_n = n u / (1 - n u) and, for test row i,
    # S_i = ||a_i||^2 + max_j ||b_j||^2, so that ||a_i - b_j||^2 <= 2 S_i and
    # ||b_j||^2 + 2 |a_i.b_j| <= 2 S_i.  A row keeps cdist's label once half
    # of its gap exceeds E + E', the errors of each candidate's 2 g in this
    # form and in cdist: when the gap between the two smallest entries of
    # 2 g exceeds 2 (E + E'), every other column of cdist's row exceeds the
    # entry at `nearest`, so cdist's argmin is `nearest`.
    # * E, this form: the dot product and ||b_j||^2 are each off by at most
    #   gamma_d times their sums of absolute terms, in any summation order,
    #   with or without FMA; the subtraction adds one rounding and the
    #   halving is exact.  So 2 g is off by at most
    #   E <= (gamma_d + u)(1 + gamma_d) 2 S_i, about (d + 1) eps S_i.  In
    #   float32, rounding the inputs moves each entry by at most u times its
    #   size, so it moves a.b and ||b||^2 by about 2 u times their sums of
    #   absolute terms, and 2 g by 2 eps32 S_i more.
    # * E', cdist: it sums d rounded squares of rounded differences in
    #   float64, so it is off by at most gamma_(d+2) ||a_i - b_j||^2, about
    #   (d + 2) eps64 S_i, which is below eps32 S_i.
    # So bound_i = 4 (d + w) (eps S_i + floor) with w = 2 in float64 exceeds
    # twice the first-order E + E' = (2d + 3) eps S_i; w = 3 in float32 adds
    # twice the input-rounding term and exceeds twice E + E' < (d + 4) eps32
    # S_i, keeping at least float64's spare factor.  That factor covers the
    # 1/(1 - n u) terms and the roundings of the norms, the gap and the
    # bound.  The floor covers underflow.  In float64, gradual underflow's
    # absolute error is at most eps tiny per rounding.  In float32, each
    # rounding that underflows, flushed to zero or not, is off by less than
    # tiny32; with every scaled entry below 1 that moves 2 g by at most about
    # 12 (d + 1) tiny32, and 4 (d + 3) floors, 32 (d + 3) tiny32, cover twice
    # that.  cdist's own underflow, at most d 2^-1075 before scaling, is below
    # d 2^-275 after it for |exponent| <= 400, far under that term, and cdist
    # cannot overflow there (d 2^802 < 2^1024).  A non-finite gap or bound
    # fails the test, so overflow falls back too.  Nothing here depends on
    # how the rows are split into blocks.
    # The swapped call, with a as its training set, forms the same products
    # a_i.b_j (in float32 from the same copies, the scale being taken over
    # both inputs), in another summation order, which no term above depends
    # on.  Its form for test row j is 2 g'_ji = ||a_i||^2 - 2 b_j.a_i, so its
    # bound is this one with a and b exchanged:
    # S'_j = ||b_j||^2 + max_i ||a_i||^2.
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    half_sq_b = 0.5 * sq_b

    def bound(sq_x, sq_y):  # of the rows x ranking the rows y
        return 4 * (d + w) * (eps * (sq_x + sq_y.max()) + floor)

    # A block of h rows keeps h entries of G per training row in cache, and
    # its product re-packs the d entries of that row.  Blocking pays only
    # while d < h and G is too large to be formed whole.  That size is
    # judged on the float64 G whichever precision forms it, so memory stays
    # as it was: a whole float32 G of 2000 x 2400 (19.2 MB) ran adapt-tall
    # 15-20% faster, but raised its peak RSS from 74 to 91 MB.
    height = max(1, _BLOCK_BYTES // (a.itemsize * n_train))
    if d >= height or 8 * n_test * n_train <= _MAX_WHOLE_BYTES:
        height = n_test
    columns = None
    if reverse and height == n_test:
        columns = 0.5 * sq_a, bound(sq_b, sq_a)
    nearest = np.empty(n_test, dtype=np.intp)
    unsettled = np.empty(n_test, dtype=bool)
    forward = bound(sq_a, sq_b)
    swapped = None
    buffer = np.empty((min(height, n_test), n_train), dtype=a.dtype)
    for lo in range(0, n_test, height):
        hi = min(lo + height, n_test)
        g = buffer[: hi - lo]
        np.matmul(a[lo:hi], b.T, out=g)  # the only block of G held
        if columns is not None:
            swapped = _screen_columns(g, *columns)
        np.subtract(half_sq_b, g, out=g)  # g = (||b||^2 - 2 a.b) / 2
        nearest[lo:hi], unsettled[lo:hi] = _settle(g, forward[lo:hi])
    return nearest, unsettled, swapped


def _screen_columns(product: np.ndarray, half_sq_a: np.ndarray, bound: np.ndarray):
    """The swapped call's screen of a whole ``product`` A B^T: each
    column's nearest row under ||a||^2 / 2 - a.b, and whether its gap fails
    to exceed twice ``bound``.

    Blocks of columns are copied, transposed, into one buffer of at most
    ``_BLOCK_BYTES`` (or one column), so that each block's rows are whole
    columns and are ranked as ``_screen`` ranks its rows.  Row blocks with a
    running best per column took a fifth longer on a 1123 x 958 G, and
    ``argmin`` across rows copies each block, which doubled the
    temporaries."""
    n_rows, n_cols = product.shape
    width = max(1, _BLOCK_BYTES // (product.itemsize * n_rows))
    nearest = np.empty(n_cols, dtype=np.intp)
    unsettled = np.empty(n_cols, dtype=bool)
    buffer = np.empty((min(width, n_cols), n_rows), dtype=product.dtype)
    for lo in range(0, n_cols, width):
        hi = min(lo + width, n_cols)
        g = buffer[: hi - lo]
        np.subtract(half_sq_a, product[:, lo:hi].T, out=g)
        nearest[lo:hi], unsettled[lo:hi] = _settle(g, bound[lo:hi])
    return nearest, unsettled


def _settle(g: np.ndarray, bound: np.ndarray):
    """Each row's argmin in ``g``, lowest column first, and whether its gap
    to the row's second smallest fails to exceed twice ``bound``.  A tie
    leaves a gap of 0, and a non-finite gap or bound fails the test.
    Overwrites ``g``."""
    rows = np.arange(g.shape[0])
    best_index = g.argmin(axis=1)
    best = g[rows, best_index]
    g[rows, best_index] = np.inf
    half_gap = g.min(axis=1) - best
    return best_index, ~(half_gap > bound)  # gap > 2 bound_i


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
