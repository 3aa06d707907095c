"""Closed-form alignment of matched subspace pairs and feature construction.

For a matched pair with source basis Bs and target basis Bt, the transform
A = Bs^T Bt minimises ||Bs A - Bt||_F over all square matrices A.  Every
domain fit already carries each sample's coordinates in its own subspace
(``SubspaceCollection.coords``), so a source sample's aligned features are
its coordinates times the A of its subspace's pair, and a target sample's
features are its own coordinates.  This is the feature form of subspace
alignment (Fernando et al., ICCV 2013); no d-dimensional sample is touched.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, DimensionMismatchError
from .matching import Matching
from .multifit import SubspaceCollection
from .subspace import Subspace


def align_pair(source: Subspace, target: Subspace) -> np.ndarray:
    """The closed-form transform aligning a source subspace with its match.

    If the ranks differ, both bases are first truncated to their leading
    r0 = min(r_source, r_target) columns.

    Args:
        source: subspace fitted on source samples.
        target: matched subspace fitted on target samples.

    Returns:
        The (r0, r0) matrix Bs[:, :r0]^T Bt[:, :r0].
    """
    if source.ambient_dim != target.ambient_dim:
        raise DimensionMismatchError(
            f"subspaces live in different ambient dimensions "
            f"({source.ambient_dim} vs {target.ambient_dim})"
        )
    r0 = min(source.rank, target.rank)
    return source.basis[:, :r0].T @ target.basis[:, :r0]


def build_features(
    source_fit: SubspaceCollection,
    target_fit: SubspaceCollection,
    matching: Matching,
) -> tuple[np.ndarray, np.ndarray]:
    """Map both domains' subspace coordinates into a shared dimension.

    The rows of source subspace s are ``coords_s[:, :r0] @ A[:, :r]`` with
    A = align_pair(s, t) for its matched target t and r0 the pair's minimum
    rank.  The rows of target subspace t are ``coords_t[:, :r]``.  The shared
    dimension r is the minimum rank occurring anywhere in the pipeline.

    Args:
        source_fit: decomposition of the source samples.
        target_fit: decomposition of the target samples.
        matching: pairing of source subspaces with target subspaces.

    Returns:
        (source_features, target_features) of shapes (N_s, r) and (N_t, r),
        rows in the order of the fitted samples.
    """
    if [i for i, _, _ in matching.pairs] != list(range(len(source_fit))):
        raise ConfigError(
            "matching does not list every source subspace once, in order"
        )
    transforms = [
        align_pair(source_fit.subspaces[i], target_fit.subspaces[j])
        for i, j, _ in matching.pairs
    ]
    r = min(
        min(a.shape[1] for a in transforms),
        min(s.rank for s in target_fit.subspaces),
    )

    source_features = np.empty((source_fit.assignment.shape[0], r))
    for i, (coords, a) in enumerate(zip(source_fit.coords, transforms)):
        source_features[source_fit.assignment == i] = coords[:, : a.shape[0]] @ a[:, :r]

    target_features = np.empty((target_fit.assignment.shape[0], r))
    for i, coords in enumerate(target_fit.coords):
        target_features[target_fit.assignment == i] = coords[:, :r]

    return source_features, target_features
