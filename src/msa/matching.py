"""Greedy pairing of source subspaces with target subspaces by distance.

``greedy_match`` takes the (m_s, m_t) distances of ``grassmann.distance_matrix``
and numbers each subspace by its position in its ``SubspaceCollection``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError


@dataclass(frozen=True)
class Matching:
    """Matched (source, target, distance) triples plus the surplus policy.

    ``pairs`` holds one triple per source subspace, sorted by source; each
    subspace is named by its position in its collection.
    ``policy`` records how a size mismatch between the two collections was
    handled.
    """

    pairs: tuple[tuple[int, int, float], ...]
    policy: str


def greedy_match(distances: np.ndarray) -> Matching:
    """Match every source subspace to a target subspace, nearest first.

    Repeatedly takes the globally smallest entry among still-unmatched rows
    and columns, breaking ties by lowest source, then lowest target.
    When sources outnumber targets, each leftover source is matched to its
    individually nearest target (the lowest among equals), reusing
    targets already taken.  When targets outnumber sources, the leftovers
    stay unmatched.

    Args:
        distances: (m_s, m_t) array; entry [i, j] is the distance between
            source subspace i and target subspace j.

    Returns:
        Matching with one pair per source subspace.
    """
    values = np.asarray(distances, dtype=np.float64)
    if values.size == 0:
        raise DegenerateDataError("cannot match against an empty distance matrix")
    m_s, m_t = values.shape

    target_of: dict[int, int] = {}
    taken: set[int] = set()
    # A stable sort of the row-major entries orders equal distances by row,
    # then by column.
    for flat in np.argsort(values, axis=None, kind="stable"):
        i, j = divmod(int(flat), m_t)
        if i not in target_of and j not in taken:
            target_of[i] = j
            taken.add(j)
    for i in range(m_s):
        if i not in target_of:
            target_of[i] = int(np.argmin(values[i]))

    if m_s == m_t:
        policy = "one_to_one"
    elif m_s > m_t:
        policy = "surplus_sources_reuse_nearest_target"
    else:
        policy = "surplus_targets_unmatched"

    pairs = tuple((i, target_of[i], float(values[i, target_of[i]])) for i in range(m_s))
    return Matching(pairs=pairs, policy=policy)
