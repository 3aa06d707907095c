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


# Frobenius tolerance on ||B B^T - R R^T|| between a fit_pca basis B and the
# SVD reference R, pinned for the tests' inputs: N, d <= 40, centred top k
# singular values in [1, 4] and the rest in [0, 0.1] (the sign-convention
# inputs have gaps at least as wide, relative to their trace).  The Gram
# matrix and its eigensolver move the spectrum by at most
# 2 (max(N, d) + 2) eps trace(G) <= 84 eps (16 k + 0.01 (p - k)) < 1.2e-11,
# and the gap at k is at least 1 - 0.01, so by Davis and Kahan every
# principal angle is below 1.3e-11 and the projectors differ by less than
# sqrt(2 k) 1.3e-11 < 1.2e-10.  The SVD reference is accurate to a few eps.
PROJECTOR_TOL = 1e-9


# Absolute tolerance on reconstruction errors, and tolerance relative to the
# largest coordinate, between a scoring read off a wide domain's kept Gram K
# and the d-space (X - mean) @ B on copied rows.
# * Refits on test_subspace's wide unions (d <= 400, m <= 150, screened
#   cancellation factor A <= 8): the refit's Gram moves by at most about
#   (d / 2 + 2 m + 8) eps A trace (see _fit_rows_from_gram), 1e-12 of the
#   trace; the gap after each plane's 6 directions holds a tenth of the
#   trace or more, so by Davis and Kahan the projectors differ by about
#   1e-11, within PROJECTOR_TOL.  A score moves by about the same relative
#   amount times sqrt(trace / lambda_r) <= 10.  The largest seen over 480
#   draws were 3e-11 (projectors), 4e-15 (errors) and 3e-14 (coordinates).
# * A whole domain's first round, coordinates V Lambda^{1/2}: with eigh's
#   residual E = K V - V Lambda, about eps ||K||, column j differs from
#   C B by about ||E|| / sqrt(lambda_j), eps sqrt(lambda_1 / lambda_j) of
#   the largest.  The same residual puts about eps lambda_1 / lambda_j on
#   the diagonal of B^T B - I, which the contract holds to 1e-8, so the
#   difference stays near sqrt(eps 1e-8) = 1.5e-12 of the largest; beyond
#   that the basis comes from the SVD and is scored in d-space.  The largest
#   seen over 61,704 first rounds of wide draws shaped like test_multifit's
#   (d <= 9, columns scaled by 10^[-2, 2]) were 2.6e-12 (errors) and
#   3.2e-12 (coordinates).
GRAM_SCORE_TOL = 1e-11


def svd_pca_basis(X, k):
    """Reference for fit_pca's span: the economy SVD of the centred data.

    The rank counts the singular values above sigma_1 max(N, d) eps, as
    ``np.linalg.matrix_rank`` does; the result is the top min(k, rank) right
    singular vectors as columns, with the signs the SVD gave them.
    """
    X = np.asarray(X, dtype=np.float64)
    _, svals, vh = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    rank = int(np.count_nonzero(svals > svals[0] * max(X.shape) * np.finfo(np.float64).eps))
    return vh[: min(k, rank)].T


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
