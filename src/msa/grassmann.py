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
overlap carries the alignment transforms (see :mod:`msa.alignment`).  The
bases are trusted to meet the orthonormality contract of
:class:`msa.subspace.Subspace` (``ORTHONORMAL_TOL``); a radicand within the
slack that contract allows reads as distance 0, and nothing is checked again.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError
from .subspace import ORTHONORMAL_TOL


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
    # Under the contract (delta = ||B^T B - I||_F <= ORTHONORMAL_TOL), with r0
    # the smaller rank of a pair, B0 that basis and B1 the other:
    #   ||Bs^T Bt||_F^2 <= ||B1||_2^2 ||B0||_F^2 <= (1 + delta)(r0 + sqrt(r0) delta)
    #                   <= r0 + slack,  slack = delta (1 + delta)(r0 + sqrt(r0)),
    # since ||B1||_2^2 <= 1 + delta and trace(B0^T B0) <= r0 + sqrt(r0) delta.
    # So no radicand of valid bases lies below -slack (rounding adds about
    # 2 d eps sqrt(r0 r1), far less at any d in use), and one within slack of
    # zero, on either side, cannot be told from it: it reads 0, so spans that
    # are equal to within the contract tie exactly.
    r0 = np.minimum.outer(rs, rt)
    slack = ORTHONORMAL_TOL * (1 + ORTHONORMAL_TOL) * (r0 + np.sqrt(r0))
    distances = np.sqrt(np.where(radicand > slack, radicand, 0.0))
    distances.setflags(write=False)
    overlap.setflags(write=False)
    return distances, overlap
