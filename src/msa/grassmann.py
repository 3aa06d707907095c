"""Distances between linear subspaces of possibly different dimensions.

The metric used here is the symmetric directional distance

    d(B1, B2) = sqrt(max(r1, r2) - ||B1^T B2||_F^2),

which for equal ranks reduces to the chordal distance sqrt(sum_i sin^2 theta_i)
over the principal angles theta_i, and for unequal ranks adds one unit per
missing direction.  It is symmetric, invariant under rotation of either basis
within its span, and bounded by sqrt(max(r1, r2)).  ``distance_matrix``
scores every source subspace against every target subspace from one product
S^T T of the stacked bases: block [i, j] of that overlap is Bs_i^T Bt_j, so
each distance is read off its block's squared Frobenius norm, and the same
overlap carries the alignment transforms (see :mod:`msa.alignment`).
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateDataError, DimensionMismatchError

# Radicands this far below zero are rounding noise and are clamped to zero.
_NEGATIVE_SLACK = 1e-9


def _stacked(subspaces) -> np.ndarray:
    """The bases side by side; a single basis as it is, which stacking would copy."""
    return subspaces[0].basis if len(subspaces) == 1 else np.hstack([s.basis for s in subspaces])


def distance_matrix(source, target) -> tuple[np.ndarray, np.ndarray]:
    """All pairwise distances between two sequences of subspaces.

    Args:
        source: Subspaces providing the rows.
        target: Subspaces providing the columns, in the same ambient
            dimension.

    Returns:
        Read-only (distances, overlap).  ``distances`` is (m_s, m_t); entry
        [i, j] is the distance between source subspace i and target subspace
        j.  ``overlap`` is S^T T for the column-stacked bases S and T, of
        shape (sum of source ranks, sum of target ranks).
    """
    dims = {sub.ambient_dim for sub in (*source, *target)}
    if len(dims) != 1:
        raise DimensionMismatchError(
            f"subspaces live in different ambient dimensions: {sorted(dims)}"
        )
    overlap = _stacked(source).T @ _stacked(target)
    rs = np.array([s.rank for s in source])
    rt = np.array([t.rank for t in target])
    squared = overlap * overlap
    block_norms = np.add.reduceat(
        np.add.reduceat(squared, np.cumsum(rs) - rs, axis=0), np.cumsum(rt) - rt, axis=1
    )
    radicand = np.maximum.outer(rs, rt) - block_norms
    if radicand.min() < -_NEGATIVE_SLACK:
        raise DegenerateDataError(
            f"distance radicand {radicand.min()} is negative beyond rounding noise; "
            "basis columns are not orthonormal"
        )
    distances = np.sqrt(np.maximum(radicand, 0.0))
    distances.setflags(write=False)
    overlap.setflags(write=False)
    return distances, overlap
