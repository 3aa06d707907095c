"""Greedy decomposition of a dataset into a union of low-rank subspaces.

The fitting loop peels one subspace at a time: fit a rank-k PCA to the
current pool, refit on the samples it reconstructs well, keep those the
refit reconstructs well, and recurse on the rest.  A round keeps a rest too
small for another fit, and the first round that keeps its whole pool is the
last, so every sample ends up assigned to exactly one subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from .subspace import (
    FeatureMatrix,
    Subspace,
    _frozen_array,
    _Rows,
    fit_pca,
    reconstruction_errors,
)

# Rows per block that _fittable compares with a pool's first row: at
# d = 4096 a block copies 2 MiB.
_CHECK_ROWS = 64


def _check_fit_settings(**settings) -> None:
    """Raise ConfigError unless the decomposition settings are in range.

    ``k`` and ``max_subspaces`` must be integers >= 1; any other keyword,
    named as in the caller's config, is a tau: a real number in (0, 1].  A
    bool is neither: True would otherwise run as k = 1 or as tau = 1.0.
    """
    for name, value in settings.items():
        if name in ("k", "max_subspaces"):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value <= 1.0:
            raise ConfigError(f"{name} must be a number in (0, 1], got {value!r}")


@dataclass(frozen=True, eq=False)
class SubspaceCollection:
    """An ordered set of subspaces plus the per-sample assignment.

    Subspaces are numbered by their position in ``subspaces``, which is fit
    order.  ``assignment`` maps each sample (by row index in the fitted data)
    to the position of the subspace it belongs to; every position appears at
    least once.

    ``coords`` holds one read-only block per subspace: block i is the
    (count_i, rank_i) matrix of coordinates, in subspace i's frame, of the
    samples assigned to it, in row order, as formed by the
    ``reconstruction_errors`` call that assigned them.

    ``tau_escalations`` counts how many times the fitting loop had to relax
    its error threshold to make progress; it is 0 on well-behaved data.
    """

    subspaces: tuple[Subspace, ...]
    assignment: np.ndarray
    coords: tuple[np.ndarray, ...]
    tau_escalations: int = 0

    def __post_init__(self):
        subspaces = tuple(self.subspaces)
        if not subspaces:
            raise DegenerateDataError("a collection needs at least one subspace")
        dims = {s.ambient_dim for s in subspaces}
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"subspaces live in different ambient dimensions: {sorted(dims)}"
            )
        assignment = np.array(self.assignment, dtype=np.int64)
        if assignment.ndim != 1:
            raise DimensionMismatchError("assignment must be a vector")
        m = len(subspaces)
        # A range check and bincount, not np.unique, which imports numpy.ma
        # (about 15 ms) in every process that fits.
        in_range = assignment.size > 0 and assignment.min() >= 0 and assignment.max() < m
        counts = np.bincount(assignment, minlength=m) if in_range else None
        if counts is None or not counts.all():
            raise DegenerateDataError(
                f"assignment must use every position 0..{m - 1} and no other "
                f"value, got {sorted(set(assignment.tolist()))}"
            )
        assignment.setflags(write=False)
        coords = tuple(_frozen_array(block) for block in self.coords)
        shapes = [block.shape for block in coords]
        expected = [(int(c), s.rank) for c, s in zip(counts, subspaces)]
        if shapes != expected:
            raise DimensionMismatchError(
                f"coordinate blocks have shapes {shapes}, expected {expected}"
            )
        object.__setattr__(self, "subspaces", subspaces)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.subspaces)


def _fittable(X: np.ndarray, picked: np.ndarray) -> bool:
    """Whether ``X[picked]`` can support a PCA fit: >= 2 samples, not all identical.

    ``picked`` holds row numbers.  The rows are compared with the first of
    them a block at a time, so no copy of all of them is made, and the
    check stops at the first block holding a different row.
    """
    if picked.size < 2:
        return False
    first = X[picked[0]]
    for lo in range(1, picked.size, _CHECK_ROWS):
        if np.any(X[picked[lo:lo + _CHECK_ROWS]] != first):
            return True
    return False


def _first_round(data: FeatureMatrix, k: int) -> tuple[Subspace, np.ndarray, np.ndarray]:
    """``fit_pca(data, k)`` and its errors and coordinates, once per (data, k).

    Every fit of a domain starts from this subspace and its scoring,
    whatever its tau or cap.  A FeatureMatrix is read-only and hashes by
    identity, so the memo on it can only ever return a round of this very
    data; the errors and coordinates are kept read-only.  When the domain is
    wide (N < d), the fit keeps its centred Gram matrix K on ``data``, and
    the scoring needs no work in R^d: the coordinates are the leading
    eigenvectors of K times the square roots of their eigenvalues, and the
    squared norms of the centred samples are K's diagonal.
    """
    memo = data._first_rounds
    if k not in memo:
        base = fit_pca(data, k)
        errors, coords = reconstruction_errors(data, base)
        errors.setflags(write=False)
        coords.setflags(write=False)
        memo[k] = (base, errors, coords)
    return memo[k]


def fit_multi(data, k: int, tau: float, max_subspaces: int = 16) -> SubspaceCollection:
    """Decompose a dataset into a union of rank-<=k subspaces.

    Each round fits a rank-k PCA to the remaining pool and scores every pool
    sample by its relative reconstruction error.  The round continues the
    peel only if fewer than max_subspaces - 1 subspaces exist and at least k
    samples, two of them distinct, score >= tau.  It then refits on the
    samples below tau (if two of them are distinct) and keeps the samples the
    refit puts below tau; if the rest holds no two distinct samples, the
    round keeps it too, so it joins the refit subspace.  Any other round
    keeps its whole pool, and the first round to keep its whole pool is last.

    tau is relaxed for one round by doubling: before the refit until k
    samples fall below it, if none does, and after it until one does.
    ``tau_escalations`` on the result counts the doublings.  Every
    comparison is strict: an error equal to the threshold in force,
    tau * 2^j, counts as an outlier, and an error within rounding of it
    falls on whichever side its rounding puts it.

    The first round's PCA and its scoring depend only on the data and k, so
    they are kept on the FeatureMatrix and shared by every fit of that
    object, whatever its tau; fit_pca in turn keeps the object's Gram
    eigendecomposition, so every k shares one.  The pools of later fits are
    rows of the data, passed uncopied; on a wide domain (N < d) they are
    fitted and scored from the centred Gram matrix the first round keeps
    (see ``msa.subspace``), and on a tall one, or where that would lose
    accuracy to cancellation, from a copy of their rows.  The result
    depends only on the data and the three settings, so a caller may reuse
    it for the same data object; ``adapt``'s ``fit_cache`` keys fits by
    (data object, k, tau, max_subspaces).

    Args:
        data: FeatureMatrix or (N, d) array with N >= 2; an array is
            wrapped in a new FeatureMatrix, so its first round is not shared.
        k: requested dimension of each subspace, 1 <= k <= d.
        tau: relative reconstruction-error threshold in (0, 1]; a sample with
            error below tau counts as an inlier of the current subspace.
            With tau = 1.0 only samples orthogonal to a fit (error exactly
            1.0) are outliers, so the fit is a single PCA unless k or more
            such samples exist; max_subspaces = 1 always gives one.
        max_subspaces: hard cap on the number of subspaces, >= 1.

    Returns:
        SubspaceCollection over the input samples, with every sample's
        coordinates in its subspace, from the scoring that assigned it.
    """
    _check_fit_settings(k=k, max_subspaces=max_subspaces, tau=tau)
    if not isinstance(data, FeatureMatrix):
        data = FeatureMatrix(data)
    X = data.data
    n, d = X.shape
    if n < 2:
        raise DegenerateDataError(f"need at least 2 samples, got {n}")
    if k > d:
        raise ConfigError(f"k = {k} exceeds the feature dimension {d}")

    remaining = np.arange(n)
    assignment = np.full(n, -1, dtype=np.int64)
    # Each round's subspace and the coordinates of the samples it keeps.
    rounds: list[tuple[Subspace, np.ndarray]] = []
    escalations = 0

    def relax(errors: np.ndarray, tau_eff: float, need: int) -> float:
        """Double tau_eff until at least ``need`` errors fall below it."""
        nonlocal escalations
        while np.count_nonzero(errors < tau_eff) < need:
            tau_eff *= 2.0
            escalations += 1
        return tau_eff

    # The pool is the rows ``remaining`` of the data, handed to fit_pca and
    # reconstruction_errors uncopied; the first is the whole domain.
    base, errors, coords = _first_round(data, min(k, n))
    while True:
        outliers = errors >= tau
        keep = np.ones(remaining.size, dtype=bool)
        if (
            len(rounds) < max_subspaces - 1
            and np.count_nonzero(outliers) >= k
            and _fittable(X, remaining[outliers])
        ):
            tau_eff = relax(errors, tau, k) if outliers.all() else tau
            inliers = remaining[errors < tau_eff]
            if _fittable(X, inliers):
                base = fit_pca(_Rows(data, inliers), min(k, inliers.size))
                errors, coords = reconstruction_errors(_Rows(data, remaining), base)
            keep = errors < relax(errors, tau_eff, 1)
            if not _fittable(X, remaining[~keep]):
                keep[:] = True

        assignment[remaining[keep]] = len(rounds)
        rounds.append((base, coords[keep]))
        if keep.all():
            break
        remaining = remaining[~keep]
        pool = _Rows(data, remaining)
        base = fit_pca(pool, min(k, remaining.size))
        errors, coords = reconstruction_errors(pool, base)

    subspaces, blocks = zip(*rounds)
    return SubspaceCollection(subspaces, assignment, coords=blocks, tau_escalations=escalations)
