"""Shared helpers for the test suite."""

import numpy as np
import pytest

from msa.subspace import Subspace, _sample_array


def random_orthonormal(rng, d, r):
    """Random d x r frame with orthonormal columns."""
    q, rm = np.linalg.qr(rng.normal(size=(d, max(r, 1))))
    q = q[:, :r] * np.sign(np.diag(rm)[:r])
    return q


def total_reconstruction_error(data, subspace: Subspace) -> float:
    """Sum of unnormalised squared residuals ||x - B B^T x||^2 over samples."""
    X = _sample_array(data)
    centred = X - subspace.mean
    residual = centred - (centred @ subspace.basis) @ subspace.basis.T
    return float(np.sum(residual * residual))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
