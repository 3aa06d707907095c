"""Orthonormal subspaces, truncated PCA and per-sample reconstruction error.

Samples are row vectors throughout: a dataset is an (N, d) array and a basis
is a (d, r) matrix with orthonormal columns, to within the contract that
``Subspace`` enforces (see ``ORTHONORMAL_TOL``).  Every subspace carries the
mean of the samples it was fitted on.  ``reconstruction_errors`` scores
centred samples from the coordinates (x - mean)^T B alone, which it returns:
the one projection of samples into a subspace's frame.

A wide domain (N < d) is fitted in the space of its centred Gram matrix
K = C C^T (N x N), which a FeatureMatrix keeps from its first fit; K is
summed over column blocks of C, so C is never formed whole.  Every fit
takes one path (see ``fit_pca``): a spectrum, cut to k, then eigenvectors
or column scaling, then a copy of the rows or the SVD where that fails.
Rows of the domain (``_Rows``, a pool of ``fit_multi``) take their
spectrum from K, and a subspace fitted from K keeps its spectrum, cut to
its rank.  The domain against its own fit and a pool against a fit of
rows, the pairings ``fit_multi`` scores, are scored from K, so refits and
their scoring copy no rows.  Each step screens for the cancellation that
working from K or raw rows can bring, and uses copied rows when one fails.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import ConfigError, DegenerateDataError, DimensionMismatchError

# The orthonormality contract: every Subspace basis B has
# delta = ||B^T B - I||_F <= ORTHONORMAL_TOL, checked once when the Subspace
# is built, and is read-only from then on.  Code downstream relies on it
# instead of checking again; each use states the slack it implies.
ORTHONORMAL_TOL = 1e-8


def _frozen_array(values) -> np.ndarray:
    """Copy ``values`` into a C-contiguous read-only float array."""
    out = np.array(values, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


def _integer_labels(values) -> np.ndarray:
    """``values`` as int64, or DegenerateDataError unless each is an integer.

    Integral floats such as 1.0, as .mat files hold labels, pass; 1.7, NaN
    or a value beyond int64 raises rather than being cast to another number.
    """
    arr = np.asarray(values)
    with np.errstate(invalid="ignore"):
        out = arr.astype(np.int64) if arr.dtype.kind in "biuf" else None
    if out is None or not np.array_equal(out, arr):
        raise DegenerateDataError(f"labels must be integers, got non-integer {arr.dtype} values")
    return out


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """An (N, d) matrix of sample features with optional integer labels.

    Args:
        data: array-like of shape (N, d), one row per sample.  Copied and
            kept read-only; every entry must be finite.
        labels: optional length-N integer labels.
        copy: with False, a C-contiguous float64 ``data`` array is kept
            itself and made read-only in place, for a caller that hands over
            an array it made and will not write to; any other ``data`` is
            still copied.
    """

    data: np.ndarray
    labels: np.ndarray | None = None
    copy: InitVar[bool] = True
    # The data is read-only, so no memo ever goes stale.  The Gram
    # spectrum of all of ``data`` (with the centred Gram itself when N < d),
    # filled by the first ``fit_pca`` of it:
    _spectrum: _GramSpectrum | None = field(default=None, init=False, repr=False)
    # fit_multi's first round, the fit_pca of all of ``data`` and its
    # reconstruction errors and coordinates, by requested k:
    _first_rounds: dict[int, tuple[Subspace, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self, copy: bool):
        convert = np.array if copy else np.asarray
        data = convert(self.data, dtype=np.float64, order="C")
        if data.ndim != 2:
            raise DimensionMismatchError(
                f"feature matrix must be 2-d, got shape {data.shape}"
            )
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise DegenerateDataError(
                f"feature matrix must be non-empty, got shape {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise DegenerateDataError("feature matrix contains non-finite entries")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if self.labels is not None:
            labels = _integer_labels(self.labels)
            if labels.ndim != 1 or labels.shape[0] != data.shape[0]:
                raise DimensionMismatchError(
                    f"labels must be a length-{data.shape[0]} vector, "
                    f"got shape {labels.shape}"
                )
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class Subspace:
    """An r-dimensional linear subspace of R^d with its centring offset.

    The basis is orthonormal to within ``ORTHONORMAL_TOL``:
    ||B^T B - I||_F <= 1e-8, or DegenerateDataError.  It is stored as a
    read-only copy, so the contract holds for the Subspace's lifetime.

    Args:
        basis: finite (d, r) matrix with orthonormal columns, 1 <= r <= d.
        mean: finite length-d centring offset (the mean of the fitted
            samples).
    """

    basis: np.ndarray
    mean: np.ndarray
    # Set by fit_pca on a domain that keeps its Gram matrix: the spectrum
    # the basis was formed from, which reconstruction_errors reads off.
    _gram: _GramSpectrum | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        basis = _frozen_array(self.basis)
        mean = _frozen_array(self.mean)
        if basis.ndim != 2:
            raise DimensionMismatchError(f"basis must be 2-d, got shape {basis.shape}")
        d, r = basis.shape
        if not 1 <= r <= d:
            raise DimensionMismatchError(
                f"basis must be d x r with 1 <= r <= d, got shape {basis.shape}"
            )
        if mean.shape != (d,):
            raise DimensionMismatchError(
                f"mean must have length {d}, got shape {mean.shape}"
            )
        if not (np.isfinite(basis).all() and np.isfinite(mean).all()):
            raise DegenerateDataError("basis or mean contains non-finite entries")
        gram = basis.T @ basis
        if np.linalg.norm(gram - np.eye(r)) > ORTHONORMAL_TOL:
            raise DegenerateDataError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mean", mean)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


class _Rows(NamedTuple):
    """Rows ``index`` (ascending row numbers) of a FeatureMatrix, uncopied.

    ``fit_multi`` hands its pools to ``fit_pca`` and ``reconstruction_errors``
    in this form, so that a wide domain's pools are fitted and scored from
    the Gram matrix the domain keeps; any other pool is copied out of the
    domain and treated as an array.
    """

    matrix: FeatureMatrix
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.index.size, self.matrix.n_features


def _sample_array(data) -> np.ndarray:
    """The (N, d) float array behind a FeatureMatrix, rows or an array-like."""
    if isinstance(data, FeatureMatrix):
        return data.data
    if isinstance(data, _Rows):
        return data.matrix.data[data.index]
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected an (N, d) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DegenerateDataError("samples contain non-finite entries")
    return arr


# _fittable's largest block of rows (2 MiB at d = 4096).
_CHECK_ROWS = 64


def _fittable(X: np.ndarray, picked: np.ndarray) -> bool:
    """Whether ``X[picked]`` can support a PCA fit: >= 2 samples, not all identical.

    ``picked`` holds row numbers.  The rows are compared with the first in
    blocks that double from one row to _CHECK_ROWS, up to the first block
    holding a different row: rows that differ early, as nearly all do, copy
    only a few, where a block of 64 can be a third of a small wide domain.
    """
    if picked.size < 2:
        return False
    first = X[picked[0]]
    lo, height = 1, 1
    while lo < picked.size:
        if np.any(X[picked[lo:lo + height]] != first):
            return True
        lo, height = lo + height, min(2 * height, _CHECK_ROWS)
    return False


class _GramSpectrum(NamedTuple):
    """A Gram matrix's eigenpairs: the half of ``fit_pca`` that does not depend on k.

    ``exponent`` is the e for which the data was centred in units of 2^e,
    ``mean`` the sample mean in those units, and ``shift`` the f by which
    the centred data C was then rescaled, so that C is in units of
    2^(e + f).  ``axes`` are the eigenvectors of the Gram matrix above the
    rank tolerance, as columns in order of decreasing eigenvalue, and
    ``values`` their eigenvalues; ``trace`` is the Gram matrix's trace.
    When N < d and the spectrum is kept, ``gram`` is C C^T itself, the K
    that refits and scoring of the domain's rows start from; else None.

    A spectrum of rows I of such a domain (``_rows_spectrum``) is of their
    own centred Gram, taken from K in K's units: ``rows`` is I (None for
    all rows), ``row_means`` the mean over I of each row of K[I, I] and
    ``centre`` their mean (None and 0 for all rows, where K is centred
    already).  A subspace fitted from K keeps its spectrum, cut to its rank
    and with the basis's column signs on ``axes``, for scoring from K.
    Every array but ``rows`` is read-only.
    """

    exponent: int
    shift: int
    mean: np.ndarray
    axes: np.ndarray
    values: np.ndarray
    trace: float
    gram: np.ndarray | None
    rows: np.ndarray | None = None
    row_means: np.ndarray | None = None
    centre: float = 0.0


# The cancellation screen.  Working from K or from raw rows instead of
# centring rows directly multiplies the rounding error by a factor that
# each fit and scoring measures: it takes the d-space computation on copied
# rows instead whenever that factor exceeds _MAX_AMPLIFICATION (3 bits).
# The generated wide domains stay below 8.
_MAX_AMPLIFICATION = 8.0


def fit_pca(data, k: int) -> Subspace:
    """Fit the rank-k principal subspace of mean-centred samples.

    The basis holds the k principal directions of largest variance of the
    centred data C, taken from whichever of its Gram matrices is smaller:
    C^T C (d x d) when N >= d, C C^T (N x N) when N < d.  Every input takes
    one path: a spectrum of that Gram matrix, cut to k; its eigenvectors
    are the basis when N >= d, and when N < d its eigenpairs (V, Lambda)
    give the directions as C^T V Lambda^{-1/2} (the kernel-PCA identity),
    formed by ``_column_scaled`` as one product of the raw rows with
    V Lambda^{-1/2} less the mean's share.  If that basis is outside the
    orthonormality contract, or the raw rows lie too far from their mean
    for the product (see ``_MAX_AMPLIFICATION``), a copy of the rows is
    fitted instead when the spectrum was read off K, and otherwise the
    basis is the left singular vectors of C^T V, from a centred copy of
    the rows.  If the centred data has rank rho < k, counted against the
    rounding of the Gram matrix, the basis has only rho columns.  Column
    signs are fixed so that the first entry of non-negligible magnitude in
    each column is non-negative, which makes the fit deterministic for a
    given input; scaling the data by a power of two scales the mean alike
    and leaves the basis bit for bit the same.

    The spectrum does not depend on k.  A FeatureMatrix keeps it from its
    first fit, so a fit of it at any other k only cuts the eigenvectors and
    forms the product; the basis is bit for bit the one a fresh array of
    the same rows gives.  A wide FeatureMatrix also keeps its centred Gram
    matrix K, and the spectrum of rows of it passed as ``_Rows`` is read off
    K[I, I] (see ``_rows_spectrum``); where that fails a screen, the
    spectrum is of a copy of the rows.
    A subspace fitted from K keeps its spectrum, cut to its rank, for
    ``reconstruction_errors``.

    Args:
        data: FeatureMatrix, ``_Rows`` of one, or (N, d) array, N >= 2.
        k: requested subspace dimension, 1 <= k <= min(N, d).

    Returns:
        Subspace with basis of shape (d, min(k, rho)) and the sample mean.

    Raises:
        ConfigError: if k is out of range for the data shape.
        DegenerateDataError: if every sample equals the first.
    """
    rows = isinstance(data, _Rows)
    X = data.matrix.data if rows else _sample_array(data)
    n, d = data.shape if rows else X.shape
    if n < 2:
        raise DegenerateDataError(f"need at least 2 samples to fit, got {n}")
    if not 1 <= k <= min(n, d):
        raise ConfigError(
            f"k must satisfy 1 <= k <= min(N, d) = {min(n, d)}, got {k}"
        )
    memo = data._spectrum if isinstance(data, FeatureMatrix) else None
    spectrum = _rows_spectrum(data) if rows else memo
    if spectrum is None:
        X = _sample_array(data) if rows else X
        # Compare the rows, not the centred rank: the mean of identical rows
        # need not round to their value, which leaves rounding noise to fit.
        if not _fittable(X, np.arange(n)):
            raise DegenerateDataError("all samples are identical; no principal direction")
        spectrum = _gram_spectrum(X, keep_gram=isinstance(data, FeatureMatrix))
        if isinstance(data, FeatureMatrix):
            object.__setattr__(data, "_spectrum", spectrum)
    axes, values = spectrum.axes[:, :k], spectrum.values[:k]
    mean = np.ldexp(spectrum.mean, spectrum.exponent)
    if n >= d:
        return Subspace(basis=axes * _column_signs(axes), mean=mean)
    fit = _column_scaled(X, spectrum, axes, values, mean)
    if fit is not None:
        return fit
    if spectrum.rows is not None:
        return fit_pca(_sample_array(data), k)
    # C^T V, with C in the spectrum's units as its Gram was formed, holds the
    # principal directions times the square roots of their eigenvalues; its
    # left singular vectors are those directions, orthonormal to rounding.
    centred = _centred(X, spectrum.mean, spectrum.exponent, spectrum.shift)
    basis = np.linalg.svd(centred.T @ axes, full_matrices=False)[0]
    return Subspace(basis=basis * _column_signs(basis), mean=mean)


def _column_signs(basis: np.ndarray) -> np.ndarray:
    """+-1 per column: the sign of its first entry above 1e-12 in magnitude.

    A unit column always has such an entry.  Multiplying by +-1.0 is exact.
    """
    first = basis[np.argmax(np.abs(basis) > 1e-12, axis=0), np.arange(basis.shape[1])]
    return np.where(first < 0, -1.0, 1.0)


def _column_scaled(X, spectrum: _GramSpectrum, axes, values, mean):
    """The subspace C^T V Lambda^{-1/2} formed from raw rows, or None.

    C is the m rows ``spectrum.rows`` of X (all when None) less ``mean``;
    ``axes`` V and ``values`` Lambda are the spectrum's eigenpairs, cut to
    the fit's rank, in units of 2^(2 (e + f)) (e and f from ``spectrum``).
    Returns the Subspace, or None when the rows lie too far from their mean
    for the product or the basis is outside the contract.  When
    ``spectrum`` keeps its Gram K, the Subspace carries the spectrum with
    V, with the basis's column signs, and Lambda as its axes and values.

    The columns of C^T V are orthogonal with norms sqrt(Lambda), so scaling
    them gives the basis with no SVD.  C is never formed: the product is
    X_I^T W - mean (1^T W) with W = V Lambda^{-1/2}, for the m rows I;
    X_I^T W is summed over small blocks of them, gathered one at a time, so
    no copy of all m rows is made.  Its m terms per entry, summed in any
    order, blocks included, round column j by at most
    gamma_m sum_i |x_i| |w_ij| <= gamma_m (sum_i ||x_i||^2)^(1/2) ||w_j||,
    against gamma_m (sum_i ||c_i||^2)^(1/2) ||w_j|| for C^T W, sums over I.
    The ratio sum_i ||x_i||^2 / trace = 1 + m ||mean||^2 / trace is the
    squared amplification, screened against _MAX_AMPLIFICATION squared.
    That error can lie outside the span, where B^T B does not see it, so
    the screen comes first; the contract check then catches a spectrum too
    spread for the scaling (such as eigenvalues down to the rank tolerance).
    """
    e, f, rows = spectrum.exponent, spectrum.shift, spectrum.rows
    m = X.shape[0] if rows is None else rows.size
    # In units of 2^-e neither side can overflow; the right side may
    # underflow to 0, which fails the screen, as it should.
    spread = np.ldexp(spectrum.trace, 2 * f) * (_MAX_AMPLIFICATION**2 - 1.0)
    if not m * float(np.sum(np.square(np.ldexp(mean, -e)))) <= spread:
        return None
    weights = axes / np.sqrt(values)
    # Scale W so that its columns' absolute sums lie below 1: then no sum in
    # X^T W exceeds max |X|, and every product scales exactly with the data.
    g = int(np.frexp(np.abs(weights).sum(axis=0).max())[1])
    weights = np.ldexp(weights, -g)
    if rows is None:
        product = X.T @ weights
    else:
        # A block of r rows holds as many numbers as the d x r product, and
        # the basis's own temporaries below outweigh the two, so gathering
        # raises no peak; below 8 rows, per-block overhead would dominate.
        product = np.zeros((X.shape[1], weights.shape[1]))
        height = max(8, weights.shape[1])
        for lo in range(0, m, height):
            product += X[rows[lo:lo + height]].T @ weights[lo:lo + height]
    product -= np.outer(mean, weights.sum(axis=0))
    basis = np.ldexp(product, g - e - f)
    signs = _column_signs(basis)
    basis *= signs
    try:
        subspace = Subspace(basis=basis, mean=mean)
    except DegenerateDataError:
        return None
    if spectrum.gram is not None:
        signed = axes * signs
        signed.setflags(write=False)
        object.__setattr__(subspace, "_gram", spectrum._replace(axes=signed, values=values))
    return subspace


def _rows_spectrum(rows: _Rows) -> _GramSpectrum | None:
    """The spectrum of rows I of a wide domain, read off its kept Gram K, or None.

    None when the domain keeps no Gram matrix or when a screen below fails;
    ``fit_pca`` then takes the spectrum of a copy of the rows.  The rows'
    own centred Gram is K[I, I] double-centred, in K's units, and the
    spectrum's mean is the rows' own mean.
    """
    spectrum, I, X = rows.matrix._spectrum, rows.index, rows.matrix.data
    if spectrum is None or spectrum.gram is None:
        return None
    m, d = rows.shape
    block = spectrum.gram[np.ix_(I, I)]
    row_means = block.mean(axis=1)
    centre = float(row_means.mean())
    outer = np.trace(block)
    block -= row_means[:, np.newaxis]
    block -= row_means
    block += centre
    trace = float(np.trace(block))
    # The mean correction.  With c_i the domain-centred rows and
    # delta = mean_I c_i, entry (i, j) of the rows' own centred Gram G is
    # (c_i - delta).(c_j - delta) = K_ij - a_i - a_j + s, with a_i the mean
    # of row i of K[I, I] and s the mean of the a_i.  Let t = trace(K[I, I])
    # = sum_I ||c_i||^2.  By Cauchy-Schwarz |K_ij| <= ||c_i|| ||c_j||,
    # |a_i| <= ||c_i|| (t / m)^(1/2) and s <= t / m, so each of the four
    # m x m terms has Frobenius norm at most t.  K_ij is off by at most
    # gamma_d ||c_i|| ||c_j|| from its forming (Frobenius gamma_d t); the
    # means and the three subtractions add about (m + 8) eps t more.  With
    # eigh's m eps ||G||, an eigenvalue moves by at most about
    # (d / 2 + 2 m + 8) eps t <= 3 (max(m, d) + 2) eps t.  Centring the rows
    # themselves would put trace(G) where t stands, and
    # t = trace(G) + m ||delta||^2: the ratio t / trace(G) is what the
    # correction's cancellation costs, screened like the raw product's.
    if not 0.0 < outer <= _MAX_AMPLIFICATION * trace:
        return None
    # The rank is counted as on centred rows, against the rows' own
    # tolerance (``_above_rounding``).  Under the screen the correction can
    # move an eigenvalue by up to 12 times that, so one that is rounding may
    # read above it.  Its basis column C^T v / sqrt(lambda) then has a
    # squared norm off by that movement over lambda, far outside the
    # contract, and ``_column_scaled`` leaves the fit to the rows.
    axes, values = _above_rounding(*np.linalg.eigh(block), max(m, d), trace)
    if not values.size:
        return None
    # The rows' mean, by one product with the whole domain; no sum exceeds
    # max |X|.
    weights = np.zeros(X.shape[0])
    weights[I] = 1.0 / m
    mean = np.ldexp(weights @ X, -spectrum.exponent)
    for a in (mean, axes, values, row_means):
        a.setflags(write=False)
    return spectrum._replace(mean=mean, axes=axes, values=values, trace=trace,
                             rows=I, row_means=row_means, centre=centre)


def _scale_exponent(*arrays: np.ndarray) -> int:
    """The e for which the arrays times 2^-e have their largest magnitude,
    over all of them, in [0.5, 1).

    Multiplying by a power of two is exact wherever the result is normal, so
    every fit is the same, bit for bit, for the data times any power of two.
    e is capped at -1021 so that 2^-e stays finite; only data whose entries
    are all subnormal reach the cap.
    """
    top = max(max(a.max(), -a.min()) for a in arrays)
    return max(int(np.frexp(top)[1]), -1021)


def _centred(X: np.ndarray, mean: np.ndarray, e: int, f: int) -> np.ndarray:
    """A fresh (X 2^-e - mean) 2^-f: samples X less ``mean`` (in units of 2^e),
    in the units 2^(e + f) of a Gram formed from them.  The scalings are by
    powers of two, so each value is the d-space one times 2^-(e + f).
    """
    centred = X * 2.0**-e
    centred -= mean
    centred *= 2.0**-f
    return centred


# A wide domain's Gram matrix is formed from column blocks of its centred
# data of at most this many bytes.  A whole centred copy (37 MB on a
# 1123 x 4096 domain) would be mapped afresh on each first fit, on top of
# whatever free memory the heap holds then, so peak memory would vary from
# run to run.  A smaller domain is one block of all its columns.
_GRAM_BLOCK_BYTES = 8 << 20


def _wide_gram(X: np.ndarray, e: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The mean, f and centred Gram C C^T of the wide (N, d) samples X, C
    being X times 2^-e less its mean, times 2^-f (see ``_gram_spectrum``).

    Only one block of C's columns exists at a time: a pass over the blocks
    takes the means and f, a second sums the blocks' Gram matrices.  With
    more than one block, a Gram entry is summed in another order than one
    product of all of C sums it, within the same error bound; one block's
    product is that product.
    """
    n, d = X.shape
    # Blocks of at least two columns: numpy sums the rows of a block of
    # two or more in the order it sums those of all of X, but a single
    # column pairwise, which would round the mean differently.
    width = max(2, _GRAM_BLOCK_BYTES // (8 * n))
    spans = [slice(lo, lo + width) for lo in range(0, d, width)]
    mean = np.empty(d)
    top = 0.0
    for cols in spans:
        block = X[:, cols] * 2.0**-e
        mean[cols] = block.mean(axis=0)
        block -= mean[cols]
        top = max(top, block.max(), -block.min())
        del block  # before the next block is made
    f = _scale_exponent(np.array(top))
    gram = None
    for cols in spans:
        block = _centred(X[:, cols], mean[cols], e, f)
        if gram is None:
            gram = block @ block.T
        else:
            gram += block @ block.T
        del block
    return mean, f, gram


def _gram_spectrum(X: np.ndarray, keep_gram: bool = False) -> _GramSpectrum:
    """The Gram spectrum of the (N, d) samples X, which are not all equal.

    With ``keep_gram`` and N < d the spectrum holds the centred Gram C C^T,
    for refits of the rows.  The centred data itself is never kept, and
    when N < d never formed whole (see ``_wide_gram``).
    """
    n, d = X.shape
    # C is centred in units of 2^e, so that neither the mean nor C can
    # overflow for finite samples, then rescaled by 2^-f to a largest
    # magnitude in [0.5, 1), so that no Gram entry can overflow and
    # trace(G) >= 1/4.
    e = _scale_exponent(X)
    if n < d:
        mean, f, gram = _wide_gram(X, e)
    else:
        centred = X * 2.0**-e
        mean = centred.mean(axis=0)
        centred -= mean
        f = _scale_exponent(centred)
        centred *= 2.0**-f
        gram = centred.T @ centred
        del centred
    trace = float(np.trace(gram))
    axes, values = _above_rounding(*np.linalg.eigh(gram), max(n, d), trace)
    kept = gram if keep_gram and n < d else None
    for a in (mean, axes, values, kept):
        if a is not None:
            a.setflags(write=False)
    return _GramSpectrum(e, f, mean, axes, values, trace, kept)


def _above_rounding(evals: np.ndarray, evecs: np.ndarray, order: int, trace: float):
    """The eigenpairs of a Gram matrix G from ``eigh`` whose eigenvalues
    exceed its rounding, as (axes, values) in order of decreasing eigenvalue.

    ``order`` is max(N, d) for the (N, d) data G was formed from, and
    ``trace`` is trace(G).  Let m be the length of the inner products that
    form G (N for C^T C, d for C C^T), p its order, u = eps/2 and
    gamma_m = m u / (1 - m u).
    * Forming G: entry (i, j) is the inner product of c_i and c_j (columns
      of C for C^T C, rows for C C^T), in whatever order its terms are
      summed (C C^T sums blocks of them), off by at most gamma_m |c_i|.|c_j|
      <= gamma_m ||c_i|| ||c_j||, so ||dG||_2 <= ||dG||_F <= gamma_m
      sum_i ||c_i||^2 = gamma_m trace(G), about (m / 2) eps trace(G).
    * eigh is backward stable: its eigenvalues are those of G + E with
      ||E||_2 about p eps ||G||_2 <= p eps trace(G).
    By Weyl's inequality an eigenvalue that is zero in exact arithmetic
    reads at most about (m / 2 + p) eps trace(G) <= 1.5 max(N, d) eps
    trace(G).  The tolerance 2 (max(N, d) + 2) eps trace(G) exceeds that;
    the spare covers the 1/(1 - m u) terms, the roundings of the trace and
    gradual underflow, whose absolute error (at most tiny per rounding) is
    far below eps trace(G) >= eps / 4 after the scaling.  An eigenvalue at
    or below it is rounding, with no determined direction, and is not
    counted.  On centred data the largest eigenvalue is at least
    trace(G) / p, far above the tolerance, so the rank is at least 1.
    """
    tol = 2 * (order + 2) * np.finfo(np.float64).eps * trace
    rank = int(np.count_nonzero(evals > tol))
    # eigh sorts ascending.
    return evecs[:, ::-1][:, :rank], evals[::-1][:rank]


# float64's tiny / eps (see reconstruction_errors).
_UNDERFLOW_FREE = 2.0**-970


def reconstruction_errors(data, subspace: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Relative squared reconstruction error and coordinates of each sample.

    For a centred sample x = row - mean the error is
    ||x - B B^T x||^2 / ||x||^2, computed under the orthonormality contract
    as 1 - ||B^T x||^2 / ||x||^2 and clipped to [0, 1]; a sample equal to
    the mean reports 0.  The pairings ``fit_multi`` makes with a subspace
    fitted from a domain's kept Gram, the domain against its own fit and
    ``_Rows`` of it against a fit of rows, are scored from that Gram (see
    ``_scores_from_gram``), except for rows that fail a screen there.

    Args:
        data: FeatureMatrix, ``_Rows`` of one, or (N, d) array.
        subspace: the subspace to reconstruct from.

    Returns:
        (errors, coords): the length-N errors and the (N, r) coordinates
        (X - mean) @ B of the samples in the subspace's frame.  Scored from
        a kept Gram matrix, the coordinates are read off K instead
        (V Lambda^{1/2}, or rows of K times V Lambda^{-1/2}); they match
        (X - mean) @ B to within rounding, not bit for bit.
    """
    scores = _scores_from_gram(data, subspace)
    if scores is not None:
        # In the Gram's units 2^unit, which the coordinates are scaled out of.
        den, coords, unit = scores
    else:
        X = _sample_array(data)
        if X.shape[1] != subspace.ambient_dim:
            raise DimensionMismatchError(
                f"samples have dimension {X.shape[1]}, "
                f"subspace lives in dimension {subspace.ambient_dim}"
            )
        # The rows of a _Rows pool are a fresh copy, centred in place.
        centred = np.subtract(X, subspace.mean, out=X if isinstance(data, _Rows) else None)
        coords = centred @ subspace.basis
        den, unit = np.einsum("ij,ij->i", centred, centred), 0
        # Squares below tiny lose bits to gradual underflow, at most 2^-1075
        # each, so a squared norm of d terms and ||c||^2 of r terms are off by
        # at most (d + r) 2^-1075 beyond their rounding: under eps times a
        # norm of at least tiny / eps = 2^-970, at any d + r < 2^51.  Below
        # that, the rows are scored again times a power of two, which is
        # exact, so the errors are those of the rows at an ordinary scale
        # (see _scale_exponent); without it, rows below about 2^-537 would
        # all score 0.  A row at the mean (norm 0) takes this path too, to
        # the same result.
        if den.size and not den.min() >= _UNDERFLOW_FREE:
            unit = _scale_exponent(centred)
            centred = np.ldexp(centred, -unit)
            coords = centred @ subspace.basis
            den = np.einsum("ij,ij->i", centred, centred)
    # For c = B^T x, ||x - B c||^2 = ||x||^2 - ||c||^2 + c^T (B^T B - I) c, and
    # under the contract |c^T (B^T B - I) c| <= delta ||c||^2
    # <= delta (1 + delta) ||x||^2.  Dropping that term moves an error by at
    # most delta (1 + delta), about 1e-8 (rounding adds about (d + 2 sqrt(r) d)
    # eps, far less), and leaves no back-projection B c to form.
    num = den - np.einsum("ij,ij->i", coords, coords)
    errors = np.zeros(den.shape[0])
    mask = den > 0.0
    errors[mask] = num[mask] / den[mask]
    return np.clip(errors, 0.0, 1.0), np.ldexp(coords, unit) if unit else coords


def _scores_from_gram(data, subspace: Subspace) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Squared norms ||x - mean||^2 and coordinates of ``data`` from a kept Gram.

    Both are in the Gram's units: returns them with the u for which the
    coordinates times 2^u are the ones of the samples themselves.

    Serves the two pairings ``fit_multi`` makes of a domain with kept Gram K
    and a subspace fitted from K; None for any other.
    * The domain (a FeatureMatrix) against its whole-domain fit: the
      squared norms are K's diagonal, the coordinates V Lambda^{1/2}.
    * ``_Rows`` P of it against a fit of rows I: the coordinates are
      V Lambda^{1/2} when P is I, else K[P, I] less the fit's mean
      correction (see ``_rows_spectrum``) times V Lambda^{-1/2}; the
      squared norms are K_pp - 2 a_p + s.  A pool row that fails the
      cancellation screen is scored from its own row instead.
    """
    fit = subspace._gram
    matrix, pool = data if isinstance(data, _Rows) else (data, None)
    spectrum = matrix._spectrum if isinstance(matrix, FeatureMatrix) else None
    kept = fit is not None and spectrum is not None and spectrum.gram is fit.gram
    if not kept or (pool is None) != (fit.rows is None):
        return None
    e, f = fit.exponent, fit.shift
    if pool is None:
        return np.diagonal(fit.gram), fit.axes * np.sqrt(fit.values), e + f
    if np.array_equal(pool, fit.rows):
        coords = fit.axes * np.sqrt(fit.values)
        means = fit.row_means
    else:
        block = fit.gram[np.ix_(pool, fit.rows)]
        means = block.mean(axis=1)
        block -= means[:, np.newaxis]
        block -= fit.row_means
        block += fit.centre
        coords = block @ (fit.axes / np.sqrt(fit.values))
    # (c_p - delta).(c_p - delta) = K_pp - 2 a_p + s.  Each term carries the
    # rounding of K relative to its own size, so the norm's relative error
    # grows by (K_pp + 2 |a_p| + s) / norm, screened as a fit's.
    diag = fit.gram[pool, pool]
    norms = diag - 2.0 * means + fit.centre
    amplified = diag + 2.0 * np.abs(means) + fit.centre
    redo = np.flatnonzero(~(amplified <= _MAX_AMPLIFICATION * norms))
    if redo.size:
        centred = _centred(matrix.data[pool[redo]], np.ldexp(subspace.mean, -e), e, f)
        coords[redo] = centred @ subspace.basis
        norms[redo] = np.einsum("ij,ij->i", centred, centred)
    return norms, coords, e + f
