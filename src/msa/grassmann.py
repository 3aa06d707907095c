"""Distances between linear subspaces of possibly different dimensions.

The metric used here is the symmetric directional distance

    d(B1, B2) = sqrt(max(r1, r2) - ||B1^T B2||_F^2),

which for equal ranks reduces to the chordal distance sqrt(sum_i sin^2 theta_i)
over the principal angles theta_i, and for unequal ranks adds one unit per
missing direction.  It is symmetric, invariant under rotation of either basis
within its span, and bounded by sqrt(max(r1, r2)).  ``distance_matrix``
scores every source subspace against every target subspace.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DegenerateDataError, DimensionMismatchError
from .subspace import Subspace

# Radicands this far below zero are rounding noise and are clamped to zero.
_NEGATIVE_SLACK = 1e-9


def directional_distance(a: Subspace, b: Subspace) -> float:
    """Symmetric directional distance between two subspaces.

    Args:
        a: first subspace.
        b: second subspace, in the same ambient dimension.

    Returns:
        A value in [0, sqrt(max(rank(a), rank(b)))].
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"subspaces live in different ambient dimensions "
            f"({a.ambient_dim} vs {b.ambient_dim})"
        )
    overlap = a.basis.T @ b.basis
    radicand = max(a.rank, b.rank) - float(np.sum(overlap * overlap))
    if radicand < 0.0:
        if radicand < -_NEGATIVE_SLACK:
            raise DegenerateDataError(
                f"distance radicand {radicand} is negative beyond rounding noise; "
                "basis columns are not orthonormal"
            )
        radicand = 0.0
    return math.sqrt(radicand)


def distance_matrix(source, target) -> np.ndarray:
    """All pairwise distances between two collections of subspaces.

    Args:
        source: SubspaceCollection providing the rows.
        target: SubspaceCollection providing the columns.

    Returns:
        Read-only (m_s, m_t) array; entry [i, j] is the distance between
        source subspace i and target subspace j.
    """
    values = np.empty((len(source.subspaces), len(target.subspaces)))
    for i, s in enumerate(source.subspaces):
        for j, t in enumerate(target.subspaces):
            values[i, j] = directional_distance(s, t)
    values.setflags(write=False)
    return values
