"""Orthonormal subspaces, truncated PCA and per-sample reconstruction error.

Samples are row vectors throughout: a dataset is an (N, d) array and a basis
is a (d, r) matrix with orthonormal columns, to within the contract that
``Subspace`` enforces (see ``ORTHONORMAL_TOL``).  Every subspace carries the
mean of the samples it was fitted on.  ``reconstruction_errors`` scores
centred samples from the coordinates (x - mean)^T B alone, which it returns:
the one projection of samples into a subspace's frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """

    data: np.ndarray
    labels: np.ndarray | None = None
    # The data is read-only, so neither memo ever goes stale.  The Gram
    # spectrum of all of ``data``, filled by the first ``fit_pca`` of it:
    _spectrum: _GramSpectrum | None = field(default=None, init=False, repr=False)
    # fit_multi's first round, the fit_pca of all of ``data`` and its
    # reconstruction errors and coordinates, by requested k:
    _first_rounds: dict[int, tuple[Subspace, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, order="C")
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


def _sample_array(data) -> np.ndarray:
    """The (N, d) float array behind a FeatureMatrix or an array-like."""
    if isinstance(data, FeatureMatrix):
        return data.data
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected an (N, d) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DegenerateDataError("samples contain non-finite entries")
    return arr


class _GramSpectrum(NamedTuple):
    """The half of ``fit_pca`` that does not depend on k.

    ``exponent`` is the e for which the data was centred in units of 2^e,
    ``mean`` the sample mean in those units, and ``axes`` the eigenvectors
    of the Gram matrix above the rank tolerance, as columns in order of
    decreasing eigenvalue.  Both arrays are read-only.
    """

    exponent: int
    mean: np.ndarray
    axes: np.ndarray


def fit_pca(data, k: int) -> Subspace:
    """Fit the rank-k principal subspace of mean-centred samples.

    The basis holds the k principal directions of largest variance of the
    centred data C, taken from whichever of its Gram matrices is smaller:
    the top eigenvectors of C^T C (d x d) when N >= d; when N < d, the top
    eigenvectors V of C C^T (N x N) give the directions as the orthonormal
    C^T V (the kernel-PCA identity).  If the centred data has rank rho < k,
    counted against the rounding of the Gram matrix, the basis has only rho
    columns.  Column signs are fixed so that the first entry of
    non-negligible magnitude in each column is non-negative, which makes the
    fit deterministic for a given input; scaling the data by a power of two
    scales the mean alike and leaves the basis bit for bit the same.

    The centring and the eigendecomposition do not depend on k.  A
    FeatureMatrix keeps them from its first fit, so a fit of it at any
    other k only truncates the eigenvectors (and, when N < d, recentres the
    data for the d x k product C^T V and its SVD); the basis is bit for bit
    the one a fresh array of the same rows gives.

    Args:
        data: FeatureMatrix or (N, d) array, N >= 2.
        k: requested subspace dimension, 1 <= k <= min(N, d).

    Returns:
        Subspace with basis of shape (d, min(k, rho)) and the sample mean.

    Raises:
        ConfigError: if k is out of range for the data shape.
        DegenerateDataError: if every sample equals the first.
    """
    X = _sample_array(data)
    n, d = X.shape
    if n < 2:
        raise DegenerateDataError(f"need at least 2 samples to fit, got {n}")
    if not 1 <= k <= min(n, d):
        raise ConfigError(
            f"k must satisfy 1 <= k <= min(N, d) = {min(n, d)}, got {k}"
        )
    spectrum = data._spectrum if isinstance(data, FeatureMatrix) else None
    centred = None
    if spectrum is None:
        # Compare the rows, not the centred rank: the mean of identical rows
        # need not round to their value, which leaves rounding noise to fit.
        if not np.any(X != X[0]):
            raise DegenerateDataError("all samples are identical; no principal direction")
        spectrum, centred = _gram_spectrum(X)
        if isinstance(data, FeatureMatrix):
            object.__setattr__(data, "_spectrum", spectrum)
    basis = spectrum.axes[:, :k]
    if n < d:
        if centred is None:
            centred = _recentred(X * 2.0**-spectrum.exponent, spectrum.mean)
        # C^T V holds the principal directions scaled by the square roots of
        # their eigenvalues; its left singular vectors are those directions,
        # orthonormal to working precision.
        basis = np.linalg.svd(centred.T @ basis, full_matrices=False)[0]
    # A unit column always has an entry above 1e-12; the first one sets its
    # sign.  Multiplying by +-1.0 is exact.
    first = basis[np.argmax(np.abs(basis) > 1e-12, axis=0), np.arange(basis.shape[1])]
    return Subspace(
        basis=basis * np.where(first < 0, -1.0, 1.0),
        mean=np.ldexp(spectrum.mean, spectrum.exponent),
    )


def _scale_exponent(a: np.ndarray) -> int:
    """The e for which a * 2^-e has its largest magnitude in [0.5, 1).

    Multiplying by a power of two is exact wherever the result is normal, so
    every fit is the same, bit for bit, for the data times any power of two.
    e is capped at -1021 so that 2^-e stays finite; only data whose entries
    are all subnormal reach the cap.
    """
    return max(int(np.frexp(max(a.max(), -a.min()))[1]), -1021)


def _recentred(scaled: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``scaled - mean``, in place, rescaled to a largest magnitude in [0.5, 1).

    With that scaling no Gram entry can overflow and trace(G) >= 1/4.
    """
    scaled -= mean
    scaled *= 2.0**-_scale_exponent(scaled)
    return scaled


def _gram_spectrum(X: np.ndarray) -> tuple[_GramSpectrum, np.ndarray | None]:
    """The Gram spectrum of the (N, d) samples X, which are not all equal.

    Also returns the centred data C that the Gram matrix was formed from
    when N < d, where the basis needs it, and None when N >= d, where C is
    dropped before the eigendecomposition runs.
    """
    n, d = X.shape
    # Centre in units of 2^e, so that neither the mean nor the centred data
    # of finite samples can overflow.
    e = _scale_exponent(X)
    centred = X * 2.0**-e
    mean = centred.mean(axis=0)
    centred = _recentred(centred, mean)
    if n >= d:
        gram, centred = centred.T @ centred, None
    else:
        gram = centred @ centred.T
    evals, evecs = np.linalg.eigh(gram)
    # Rank tolerance, in eigenvalue units.  Let m be the length of the inner
    # products that form the Gram matrix G (N for C^T C, d for C C^T), p its
    # order, u = eps/2 and gamma_m = m u / (1 - m u).
    # * Forming G: entry (i, j) is the inner product of c_i and c_j (columns
    #   of C for C^T C, rows for C C^T), off by at most gamma_m |c_i|.|c_j|
    #   <= gamma_m ||c_i|| ||c_j||, so ||dG||_2 <= ||dG||_F <= gamma_m
    #   sum_i ||c_i||^2 = gamma_m trace(G), about (m / 2) eps trace(G).
    # * eigh is backward stable: its eigenvalues are those of G + E with
    #   ||E||_2 about p eps ||G||_2 <= p eps trace(G).
    # By Weyl's inequality an eigenvalue that is zero in exact arithmetic
    # reads at most about (m / 2 + p) eps trace(G) <= 1.5 max(N, d) eps
    # trace(G).  The tolerance 2 (max(N, d) + 2) eps trace(G) exceeds that;
    # the spare covers the 1/(1 - m u) terms, the roundings of the trace and
    # gradual underflow, whose absolute error (at most tiny per rounding) is
    # far below eps trace(G) >= eps / 4 after the scaling.  An eigenvalue
    # at or below it is rounding, with no determined direction, and is not
    # counted.  The largest eigenvalue is at least trace(G) / p, far above
    # the tolerance, so the rank is at least 1.
    tol = 2 * (max(n, d) + 2) * np.finfo(np.float64).eps * np.trace(gram)
    rank = int(np.count_nonzero(evals > tol))
    mean.setflags(write=False)
    evecs.setflags(write=False)
    return _GramSpectrum(e, mean, evecs[:, ::-1][:, :rank]), centred  # eigh sorts ascending


def reconstruction_errors(data, subspace: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Relative squared reconstruction error and coordinates of each sample.

    For a centred sample x = row - mean the error is
    ||x - B B^T x||^2 / ||x||^2, computed under the orthonormality contract
    as 1 - ||B^T x||^2 / ||x||^2 and clipped to [0, 1]; a sample equal to
    the mean reports 0.

    Args:
        data: FeatureMatrix or (N, d) array.
        subspace: the subspace to reconstruct from.

    Returns:
        (errors, coords): the length-N errors and the (N, r) coordinates
        (X - mean) @ B of the samples in the subspace's frame.
    """
    X = _sample_array(data)
    if X.shape[1] != subspace.ambient_dim:
        raise DimensionMismatchError(
            f"samples have dimension {X.shape[1]}, "
            f"subspace lives in dimension {subspace.ambient_dim}"
        )
    centred = X - subspace.mean
    coords = centred @ subspace.basis
    # For c = B^T x, ||x - B c||^2 = ||x||^2 - ||c||^2 + c^T (B^T B - I) c, and
    # under the contract |c^T (B^T B - I) c| <= delta ||c||^2
    # <= delta (1 + delta) ||x||^2.  Dropping that term moves an error by at
    # most delta (1 + delta), about 1e-8 (rounding adds about (d + 2 sqrt(r) d)
    # eps, far less), and leaves no back-projection B c to form.
    den = np.einsum("ij,ij->i", centred, centred)
    num = den - np.einsum("ij,ij->i", coords, coords)
    errors = np.zeros(centred.shape[0])
    mask = den > 0.0
    errors[mask] = num[mask] / den[mask]
    return np.clip(errors, 0.0, 1.0), coords
