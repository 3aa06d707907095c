"""Synthetic rotated-domain benchmark with planted subspace structure.

Each domain holds samples from two orthogonal 2-dimensional planes in R^8.
Every plane carries two sign-clusters on its leading axis, and the cluster
sign encodes the class label with opposite conventions on the two planes.
The target domain re-draws the same coefficient law in rotated planes: the
dominant plane is rotated toward the other plane's cluster axis, which drives
raw-space nearest-neighbour matching across the wrong class boundary, while
the quieter plane is rotated mildly toward previously unused directions.
"""

from __future__ import annotations

import math

import numpy as np

from .subspace import FeatureMatrix

# Per plane: cluster offset along the leading axis, in-cluster spread along
# the leading axis, spread along the second axis, and the (low, high) range
# in degrees of the target rotation.
OFFSETS = (2.5, 0.9)
SPREADS_MAJOR = (0.6, 0.3)
SPREADS_MINOR = (1.3, 0.25)
THETA_DEG = ((50.0, 56.0), (12.0, 20.0))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random n x n orthogonal matrix drawn via QR."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _cluster_coefficients(rng, n, plane, sign):
    major = sign * OFFSETS[plane] + rng.normal(0.0, SPREADS_MAJOR[plane], size=n)
    minor = rng.normal(0.0, SPREADS_MINOR[plane], size=n)
    return np.column_stack([major, minor])


def planted_benchmark(seed: int = 0, n_per_cluster: int = 50, noise: float = 0.01):
    """Generate one source/target domain pair with known structure.

    Args:
        seed: seed for every random draw.
        n_per_cluster: samples per sign-cluster; each domain ends up with
            4 * n_per_cluster samples.
        noise: standard deviation of isotropic ambient noise.

    Returns:
        (source, target, info): two labelled FeatureMatrix objects and a dict
        with the planted plane bases of both domains ("source_planes",
        "target_planes") and the drawn rotation angles ("angles_deg").
    """
    rng = np.random.default_rng(seed)
    frame = random_orthogonal(rng, 8)
    planes_src = (frame[:, 0:2], frame[:, 2:4])
    fresh = frame[:, 4:6]

    angles = tuple(
        math.radians(rng.uniform(low, high)) for low, high in THETA_DEG
    )
    # Plane 1 rotates axis-for-axis into plane 2; plane 2 into fresh space.
    planes_tgt = (
        math.cos(angles[0]) * planes_src[0] + math.sin(angles[0]) * planes_src[1],
        math.cos(angles[1]) * planes_src[1] + math.sin(angles[1]) * fresh,
    )

    # Sign-to-class conventions are crossed between the planes.
    class_of_sign = ({+1: 0, -1: 1}, {+1: 1, -1: 0})

    def make_domain(planes):
        blocks, labels = [], []
        for p, basis in enumerate(planes):
            for sign in (+1, -1):
                coeff = _cluster_coefficients(rng, n_per_cluster, p, sign)
                blocks.append(coeff @ basis.T)
                labels.append(np.full(n_per_cluster, class_of_sign[p][sign]))
        data = np.vstack(blocks)
        data += rng.normal(0.0, noise, size=data.shape)
        label_vec = np.concatenate(labels)
        order = rng.permutation(data.shape[0])
        return FeatureMatrix(data[order], label_vec[order])

    source = make_domain(planes_src)
    target = make_domain(planes_tgt)
    info = {
        "source_planes": planes_src,
        "target_planes": planes_tgt,
        "angles_deg": tuple(math.degrees(a) for a in angles),
    }
    return source, target, info
