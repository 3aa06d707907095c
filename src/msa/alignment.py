"""Closed-form alignment of matched subspace pairs and feature construction.

For a matched pair with source basis Bs and target basis Bt, the transform
A = Bs^T Bt minimises ||Bs A - Bt||_F over all square matrices A.  That
product is block [s, t] of the overlap S^T T that ``grassmann.distance_matrix``
already formed to score the pair, so each transform is read from it, not
formed again: when the ranks differ, A is the block's leading r0 x r0 corner,
r0 = min(r_s, r_t).  Every domain fit already carries each sample's
coordinates in its own subspace (``SubspaceCollection.coords``), so a source
sample's aligned features are its coordinates times the A of its subspace's
pair, and a target sample's features are its own coordinates.  This is the
feature form of subspace alignment (Fernando et al., ICCV 2013); no
d-dimensional sample is touched.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, DimensionMismatchError
from .matching import Matching
from .multifit import SubspaceCollection


def build_features(
    source_fit: SubspaceCollection,
    target_fit: SubspaceCollection,
    matching: Matching,
    overlap: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map both domains' subspace coordinates into a shared dimension.

    The rows of source subspace s are ``coords_s[:, :r0] @ A[:, :r]``, where
    A is the leading r0 x r0 corner of the overlap's block for s and its
    matched target t, and r0 is the pair's minimum rank.  The rows of target
    subspace t are ``coords_t[:, :r]``.  The shared dimension r is the
    minimum rank occurring anywhere in the pipeline.

    Args:
        source_fit: decomposition of the source samples.
        target_fit: decomposition of the target samples.
        matching: pairing of source subspaces with target subspaces.
        overlap: S^T T of the two fits' stacked bases, as returned by
            ``grassmann.distance_matrix``.

    Returns:
        (source_features, target_features) of shapes (N_s, r) and (N_t, r),
        rows in the order of the fitted samples.
    """
    rs = [s.rank for s in source_fit.subspaces]
    rt = [t.rank for t in target_fit.subspaces]
    if np.shape(overlap) != (sum(rs), sum(rt)):
        raise DimensionMismatchError(
            f"overlap has shape {np.shape(overlap)}, expected {(sum(rs), sum(rt))}"
        )
    if [i for i, _, _ in matching.pairs] != list(range(len(rs))):
        raise ConfigError(
            "matching does not list every source subspace once, in order"
        )
    bad = [j for _, j, _ in matching.pairs if not 0 <= j < len(rt)]
    if bad:
        raise ConfigError(
            f"matching names target positions {bad} outside 0..{len(rt) - 1}"
        )
    row, col = np.cumsum(rs) - rs, np.cumsum(rt) - rt
    r = min(rs + rt)

    source_features = np.empty((source_fit.assignment.shape[0], r))
    for (i, j, _), coords in zip(matching.pairs, source_fit.coords):
        r0 = min(rs[i], rt[j])
        a = overlap[row[i]: row[i] + r0, col[j]: col[j] + r]
        source_features[source_fit.assignment == i] = coords[:, :r0] @ a

    target_features = np.empty((target_fit.assignment.shape[0], r))
    for i, coords in enumerate(target_fit.coords):
        target_features[target_fit.assignment == i] = coords[:, :r]

    return source_features, target_features
