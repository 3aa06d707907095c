"""Directional distance between subspaces, read off one stacked overlap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from msa.exceptions import DegenerateDataError, DimensionMismatchError
from msa.grassmann import _stacked, distance_matrix
from msa.multifit import fit_multi
from msa.subspace import Subspace

from conftest import random_orthonormal


def _sub(basis):
    return Subspace(basis, np.zeros(basis.shape[0]))


def _distance(a, b):
    """The one entry of the distance matrix between two one-subspace tuples."""
    return distance_matrix((a,), (b,))[0][0, 0]


class TestDirectionalDistance:
    def test_identical_is_zero(self, rng):
        basis = random_orthonormal(rng, 6, 3)
        assert _distance(_sub(basis), _sub(basis)) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_axes(self):
        e = np.eye(3)
        d = _distance(_sub(e[:, :1]), _sub(e[:, 1:2]))
        assert d == pytest.approx(1.0)

    def test_plane_vs_contained_line(self):
        e = np.eye(3)
        d = _distance(_sub(e[:, :2]), _sub(e[:, :1]))
        # max rank 2, overlap 1
        assert d == pytest.approx(1.0)

    def test_matches_principal_angles(self, rng):
        """sqrt(sum sin^2(theta) + rank surplus), angles from scipy."""
        for _ in range(50):
            d = int(rng.integers(3, 9))
            r1 = int(rng.integers(1, d))
            r2 = int(rng.integers(1, d))
            b1 = random_orthonormal(rng, d, r1)
            b2 = random_orthonormal(rng, d, r2)
            angles = subspace_angles(b1, b2)
            expected = np.sqrt(
                np.sum(np.sin(angles) ** 2) + abs(r1 - r2)
            )
            got = _distance(_sub(b1), _sub(b2))
            assert got == pytest.approx(expected, abs=1e-8)

    def test_symmetry(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 8))
            b1 = random_orthonormal(rng, d, int(rng.integers(1, d + 1)))
            b2 = random_orthonormal(rng, d, int(rng.integers(1, d + 1)))
            ab = _distance(_sub(b1), _sub(b2))
            ba = _distance(_sub(b2), _sub(b1))
            # squared form stays well conditioned when the distance is zero
            assert ab**2 == pytest.approx(ba**2, abs=1e-10)
            assert ab == pytest.approx(ba, abs=1e-7)

    def test_bounds(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 8))
            r1 = int(rng.integers(1, d + 1))
            r2 = int(rng.integers(1, d + 1))
            b1 = random_orthonormal(rng, d, r1)
            b2 = random_orthonormal(rng, d, r2)
            dist = _distance(_sub(b1), _sub(b2))
            assert 0.0 <= dist <= np.sqrt(max(r1, r2)) + 1e-12

    def test_rotation_invariance(self, rng):
        """A shared ambient rotation must not change the distance."""
        for _ in range(50):
            d = int(rng.integers(3, 8))
            b1 = random_orthonormal(rng, d, 2)
            b2 = random_orthonormal(rng, d, 2)
            q = random_orthonormal(rng, d, d)
            before = _distance(_sub(b1), _sub(b2))
            after = _distance(_sub(q @ b1), _sub(q @ b2))
            assert after == pytest.approx(before, abs=1e-8)

    def test_basis_choice_invariance(self, rng):
        """Distance depends on the span, not the particular orthonormal basis."""
        b = random_orthonormal(rng, 6, 3)
        other = random_orthonormal(rng, 6, 2)
        rot = random_orthonormal(rng, 3, 3)
        assert _distance(_sub(b), _sub(other)) == pytest.approx(
            _distance(_sub(b @ rot), _sub(other)), abs=1e-8
        )

    def test_ambient_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            _distance(
                _sub(random_orthonormal(rng, 4, 2)),
                _sub(random_orthonormal(rng, 5, 2)),
            )


class TestDistanceMatrix:
    def test_entries_match_pairwise_calls(self, rng):
        Xs = rng.normal(size=(60, 6))
        Xt = rng.normal(size=(50, 6))
        fs = fit_multi(Xs, k=2, tau=0.5)
        ft = fit_multi(Xt, k=2, tau=0.6)
        dm, overlap = distance_matrix(fs.subspaces, ft.subspaces)
        assert dm.shape == (len(fs), len(ft))
        assert overlap.shape == (
            sum(s.rank for s in fs.subspaces), sum(t.rank for t in ft.subspaces)
        )
        for i, s in enumerate(fs.subspaces):
            for j, t in enumerate(ft.subspaces):
                expected = _distance(s, t)
                assert dm[i, j] == pytest.approx(expected, abs=1e-12)

    def test_values_read_only(self, rng):
        X = rng.normal(size=(30, 4))
        fit = fit_multi(X, k=2, tau=1.0)
        dm, overlap = distance_matrix(fit.subspaces, fit.subspaces)
        with pytest.raises(ValueError):
            dm[0, 0] = 5.0
        with pytest.raises(ValueError):
            overlap[0, 0] = 5.0

    def test_shape_validation(self, rng):
        fs = fit_multi(rng.normal(size=(30, 4)), k=2, tau=1.0)
        ft = fit_multi(rng.normal(size=(30, 5)), k=2, tau=1.0)
        with pytest.raises(DimensionMismatchError):
            distance_matrix(fs.subspaces, ft.subspaces)

    def test_non_orthonormal_overlap_rejected(self, rng):
        """A radicand below -1e-9 means the bases were not orthonormal."""
        basis = random_orthonormal(rng, 5, 2)
        sub = _sub(basis)
        # Subspace rejects such a basis, so it is swapped in after
        # construction: columns 1e-6 too long push ||B^T B||^2 above the rank.
        object.__setattr__(sub, "basis", basis * (1.0 + 1e-6))
        with pytest.raises(DegenerateDataError, match="radicand"):
            distance_matrix((sub,), (sub,))

    def test_one_basis_is_used_without_a_copy(self, rng):
        """A one-subspace side is its basis itself; several are stacked."""
        a, b = _sub(random_orthonormal(rng, 6, 2)), _sub(random_orthonormal(rng, 6, 3))
        assert _stacked((a,)) is a.basis
        assert np.array_equal(_stacked((a, b)), np.hstack([a.basis, b.basis]))


def _subspaces(draw, d, count, k):
    """``count`` subspaces of ranks 1..k in R^d, from one hypothesis draw."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ranks = draw(st.lists(st.integers(1, k), min_size=count, max_size=count))
    return tuple(_sub(random_orthonormal(rng, d, r)) for r in ranks)


@st.composite
def _subspace_pairs(draw):
    d = draw(st.integers(3, 12))
    k = draw(st.integers(1, d))
    m_s = draw(st.integers(1, 5))
    m_t = draw(st.integers(1, 5).filter(lambda m: m != m_s))
    return _subspaces(draw, d, m_s, k), _subspaces(draw, d, m_t, k)


# Every entry is a sum of at most d products of unit-bounded numbers, so it
# differs from its per-pair product by a few ulps times d; 1e-12 is pinned
# well above that for d <= 12.
KERNEL_ATOL = 1e-12


@settings(max_examples=200, deadline=None)
@given(_subspace_pairs())
def test_blocks_equal_the_per_pair_formulas(pair):
    """Mixed ranks and m_s != m_t: each distance is sqrt(max(r_i, r_j) -
    ||Bs_i^T Bt_j||^2), and each block's leading r0 x r0 corner, the pair's
    alignment transform, is Bs[:, :r0]^T Bt[:, :r0]."""
    source, target = pair
    distances, overlap = distance_matrix(source, target)
    assert distances.shape == (len(source), len(target))
    row = np.cumsum([0] + [s.rank for s in source])
    col = np.cumsum([0] + [t.rank for t in target])
    for i, s in enumerate(source):
        for j, t in enumerate(target):
            product = s.basis.T @ t.basis
            radicand = max(s.rank, t.rank) - np.sum(product * product)
            expected = np.sqrt(max(radicand, 0.0))
            # sqrt is ill-conditioned at zero (a radicand off by 1e-15 moves
            # a zero distance by 3e-8), so the atol bounds the squared
            # distances everywhere, and the distances where
            # |d - e| = |d^2 - e^2| / (d + e) carries it over, d + e >= 1.
            got = distances[i, j]
            assert abs(got * got - expected * expected) <= KERNEL_ATOL
            if got + expected >= 1.0:
                assert abs(got - expected) <= KERNEL_ATOL
            r0 = min(s.rank, t.rank)
            corner = overlap[row[i]: row[i] + r0, col[j]: col[j] + r0]
            reference = s.basis[:, :r0].T @ t.basis[:, :r0]
            np.testing.assert_allclose(corner, reference, rtol=0, atol=KERNEL_ATOL)
