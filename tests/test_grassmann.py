"""Directional distance between subspaces, read off one stacked overlap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from msa.exceptions import DimensionMismatchError
from msa.grassmann import _stacked, distance_matrix
from msa.matching import greedy_match
from msa.multifit import fit_multi
from msa.subspace import ORTHONORMAL_TOL
from msa.synthetic import planted_benchmark

from conftest import random_orthonormal, span


def _distance(a, b):
    """The one entry of the distance matrix between two one-subspace tuples."""
    return distance_matrix((a,), (b,))[0][0, 0]


class TestDirectionalDistance:
    def test_identical_is_zero(self, rng):
        basis = random_orthonormal(rng, 6, 3)
        assert _distance(span(basis), span(basis)) == 0.0

    def test_orthogonal_axes(self):
        e = np.eye(3)
        d = _distance(span(e[:, :1]), span(e[:, 1:2]))
        assert d == pytest.approx(1.0)

    def test_plane_vs_contained_line(self):
        e = np.eye(3)
        d = _distance(span(e[:, :2]), span(e[:, :1]))
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
            got = _distance(span(b1), span(b2))
            assert got == pytest.approx(expected, abs=1e-8)

    def test_symmetry(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 8))
            b1 = random_orthonormal(rng, d, int(rng.integers(1, d + 1)))
            b2 = random_orthonormal(rng, d, int(rng.integers(1, d + 1)))
            ab = _distance(span(b1), span(b2))
            ba = _distance(span(b2), span(b1))
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
            dist = _distance(span(b1), span(b2))
            assert 0.0 <= dist <= np.sqrt(max(r1, r2)) + 1e-12

    def test_rotation_invariance(self, rng):
        """A shared ambient rotation must not change the distance."""
        for _ in range(50):
            d = int(rng.integers(3, 8))
            b1 = random_orthonormal(rng, d, 2)
            b2 = random_orthonormal(rng, d, 2)
            q = random_orthonormal(rng, d, d)
            before = _distance(span(b1), span(b2))
            after = _distance(span(q @ b1), span(q @ b2))
            assert after == pytest.approx(before, abs=1e-8)

    def test_basis_choice_invariance(self, rng):
        """Distance depends on the span, not the particular orthonormal basis."""
        b = random_orthonormal(rng, 6, 3)
        other = random_orthonormal(rng, 6, 2)
        rot = random_orthonormal(rng, 3, 3)
        assert _distance(span(b), span(other)) == pytest.approx(
            _distance(span(b @ rot), span(other)), abs=1e-8
        )

    def test_ambient_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            _distance(
                span(random_orthonormal(rng, 4, 2)),
                span(random_orthonormal(rng, 5, 2)),
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

    def test_basis_at_the_contract_edge_scores_zero_against_itself(self, rng):
        """Columns 4e-10 too long give ||B^T B - I||_F = 2.5e-9, which
        Subspace accepts; the radicand, -1.6e-8, lies within the slack."""
        basis = random_orthonormal(rng, 12, 10) * (1.0 + 4e-10)
        assert np.linalg.norm(basis.T @ basis - np.eye(10)) <= ORTHONORMAL_TOL
        sub = span(basis)
        assert distance_matrix((sub,), (sub,))[0][0, 0] == 0.0

    def test_fit_against_itself_has_an_exactly_zero_diagonal(self):
        fit = fit_multi(planted_benchmark(0)[0], 2, 0.3)
        distances, _ = distance_matrix(fit.subspaces, fit.subspaces)
        assert np.array_equal(np.diag(distances), np.zeros(len(fit)))
        assert np.all(distances[~np.eye(len(fit), dtype=bool)] > 0.1)

    def test_identical_spans_tie_to_the_lower_index(self):
        """Two bases of one span both read 0, so greedy_match takes the
        lower target index, in either order, not whichever rounds lower."""
        rng = np.random.default_rng(0)
        basis = random_orthonormal(rng, 6, 3)
        rotated = np.linalg.qr(basis @ random_orthonormal(rng, 3, 3))[0]
        source = (span(basis),)
        for target in ((span(basis), span(rotated)), (span(rotated), span(basis))):
            distances, _ = distance_matrix(source, target)
            assert np.array_equal(distances, np.zeros((1, 2)))
            assert greedy_match(distances).pairs == ((0, 0, 0.0),)

    def test_slack_is_the_contract_bound(self):
        """Two lines at angle theta have radicand sin^2 theta; with r0 = 1 the
        slack is 2 ORTHONORMAL_TOL (1 + ORTHONORMAL_TOL), about 2e-8."""
        slack = 2 * ORTHONORMAL_TOL * (1 + ORTHONORMAL_TOL)
        line = span(np.array([[1.0], [0.0]]))
        for radicand, expected in ((0.5 * slack, 0.0), (2 * slack, np.sqrt(2 * slack))):
            theta = np.arcsin(np.sqrt(radicand))
            tilted = span(np.array([[np.cos(theta)], [np.sin(theta)]]))
            assert _distance(line, tilted) == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_one_basis_is_used_without_a_copy(self, rng):
        """A one-subspace side is its basis itself; several are stacked."""
        a, b = span(random_orthonormal(rng, 6, 2)), span(random_orthonormal(rng, 6, 3))
        assert _stacked((a,)) is a.basis
        assert np.array_equal(_stacked((a, b)), np.hstack([a.basis, b.basis]))


def _subspaces(draw, d, count, k):
    """``count`` subspaces of ranks 1..k in R^d, from one hypothesis draw."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ranks = draw(st.lists(st.integers(1, k), min_size=count, max_size=count))
    return tuple(span(random_orthonormal(rng, d, r)) for r in ranks)


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
