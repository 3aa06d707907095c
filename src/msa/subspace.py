"""Orthonormal subspaces, truncated PCA and per-sample reconstruction error.

Samples are row vectors throughout: a dataset is an (N, d) array and a basis
is a (d, r) matrix with orthonormal columns.  Every subspace carries the mean
of the samples it was fitted on, so that projection (``Subspace.project``)
and reconstruction (``reconstruction_errors``) are always computed on
centred data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DegenerateDataError, DimensionMismatchError

# Frobenius tolerance on ||B^T B - I|| for a basis to count as orthonormal.
ORTHONORMAL_TOL = 1e-8


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """Copy ``values`` into a C-contiguous read-only array."""
    out = np.array(values, dtype=dtype, order="C")
    out.setflags(write=False)
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
    # fit_pca of all of ``data`` by requested k, filled by ``fit_multi``.
    # The data is read-only, so an entry never goes stale.
    _pca_memo: dict[int, Subspace] = field(default_factory=dict, init=False, repr=False)

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
            labels = np.array(self.labels, dtype=np.int64)
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

    def project(self, samples) -> np.ndarray:
        """Coordinates (x - mean)^T B of each sample in this subspace's frame.

        Args:
            samples: FeatureMatrix or (N, d) array.

        Returns:
            (N, r) array.
        """
        return _centred(samples, self) @ self.basis


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


def _centred(data, subspace: Subspace) -> np.ndarray:
    """Samples minus the subspace mean, after checking their dimension."""
    X = _sample_array(data)
    if X.shape[1] != subspace.ambient_dim:
        raise DimensionMismatchError(
            f"samples have dimension {X.shape[1]}, "
            f"subspace lives in dimension {subspace.ambient_dim}"
        )
    return X - subspace.mean


def fit_pca(data, k: int) -> Subspace:
    """Fit the rank-k principal subspace of mean-centred samples.

    The basis holds the k principal directions of largest singular value of
    the centred data.  If the centred data has rank rho < k, the basis has
    only rho columns.  Column signs are fixed so that the first entry of
    non-negligible magnitude in each column is non-negative, which makes the
    fit deterministic for a given input.

    Args:
        data: FeatureMatrix or (N, d) array, N >= 2.
        k: requested subspace dimension, 1 <= k <= min(N, d).

    Returns:
        Subspace with basis of shape (d, min(k, rho)) and the sample mean.

    Raises:
        ConfigError: if k is out of range for the data shape.
        DegenerateDataError: if all samples are identical (centred rank 0).
    """
    X = _sample_array(data)
    n, d = X.shape
    if n < 2:
        raise DegenerateDataError(f"need at least 2 samples to fit, got {n}")
    if not 1 <= k <= min(n, d):
        raise ConfigError(
            f"k must satisfy 1 <= k <= min(N, d) = {min(n, d)}, got {k}"
        )
    mean = X.mean(axis=0)
    centred = X - mean
    # Economy SVD: rows of vh are the principal directions.
    _, svals, vh = np.linalg.svd(centred, full_matrices=False)
    tol = svals[0] * max(n, d) * np.finfo(np.float64).eps
    rank = int(np.count_nonzero(svals > tol))
    if rank == 0:
        raise DegenerateDataError("all samples are identical; no principal direction")
    basis = vh[: min(k, rank)].T
    # A unit column always has an entry above 1e-12; the first one sets its
    # sign.  Multiplying by +-1.0 is exact.
    first = basis[np.argmax(np.abs(basis) > 1e-12, axis=0), np.arange(basis.shape[1])]
    return Subspace(basis=basis * np.where(first < 0, -1.0, 1.0), mean=mean)


def reconstruction_errors(data, subspace: Subspace) -> np.ndarray:
    """Relative squared reconstruction error of each sample.

    For a centred sample x = row - mean the error is
    ||x - B B^T x||^2 / ||x||^2, which lies in [0, 1]; a sample equal to the
    mean reports 0.

    Args:
        data: FeatureMatrix or (N, d) array.
        subspace: the subspace to reconstruct from.

    Returns:
        Length-N array of errors.
    """
    centred = _centred(data, subspace)
    coords = centred @ subspace.basis
    residual = centred - coords @ subspace.basis.T
    num = np.einsum("ij,ij->i", residual, residual)
    den = np.einsum("ij,ij->i", centred, centred)
    errors = np.zeros(centred.shape[0])
    mask = den > 0.0
    errors[mask] = num[mask] / den[mask]
    return np.clip(errors, 0.0, 1.0)
