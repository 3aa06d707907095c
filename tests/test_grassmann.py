"""Directional distance between subspaces."""

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from msa.exceptions import DimensionMismatchError
from msa.grassmann import directional_distance, distance_matrix
from msa.multifit import fit_multi
from msa.subspace import Subspace

from conftest import random_orthonormal


def _sub(basis):
    return Subspace(basis, np.zeros(basis.shape[0]))


class TestDirectionalDistance:
    def test_identical_is_zero(self, rng):
        basis = random_orthonormal(rng, 6, 3)
        assert directional_distance(_sub(basis), _sub(basis)) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_axes(self):
        e = np.eye(3)
        d = directional_distance(_sub(e[:, :1]), _sub(e[:, 1:2]))
        assert d == pytest.approx(1.0)

    def test_plane_vs_contained_line(self):
        e = np.eye(3)
        d = directional_distance(_sub(e[:, :2]), _sub(e[:, :1]))
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
            got = directional_distance(_sub(b1), _sub(b2))
            assert got == pytest.approx(expected, abs=1e-8)

    def test_symmetry(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 8))
            b1 = random_orthonormal(rng, d, int(rng.integers(1, d + 1)))
            b2 = random_orthonormal(rng, d, int(rng.integers(1, d + 1)))
            ab = directional_distance(_sub(b1), _sub(b2))
            ba = directional_distance(_sub(b2), _sub(b1))
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
            dist = directional_distance(_sub(b1), _sub(b2))
            assert 0.0 <= dist <= np.sqrt(max(r1, r2)) + 1e-12

    def test_rotation_invariance(self, rng):
        """A shared ambient rotation must not change the distance."""
        for _ in range(50):
            d = int(rng.integers(3, 8))
            b1 = random_orthonormal(rng, d, 2)
            b2 = random_orthonormal(rng, d, 2)
            q = random_orthonormal(rng, d, d)
            before = directional_distance(_sub(b1), _sub(b2))
            after = directional_distance(_sub(q @ b1), _sub(q @ b2))
            assert after == pytest.approx(before, abs=1e-8)

    def test_basis_choice_invariance(self, rng):
        """Distance depends on the span, not the particular orthonormal basis."""
        b = random_orthonormal(rng, 6, 3)
        other = random_orthonormal(rng, 6, 2)
        rot = random_orthonormal(rng, 3, 3)
        assert directional_distance(_sub(b), _sub(other)) == pytest.approx(
            directional_distance(_sub(b @ rot), _sub(other)), abs=1e-8
        )

    def test_ambient_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            directional_distance(
                _sub(random_orthonormal(rng, 4, 2)),
                _sub(random_orthonormal(rng, 5, 2)),
            )


class TestDistanceMatrix:
    def test_entries_match_pairwise_calls(self, rng):
        Xs = rng.normal(size=(60, 6))
        Xt = rng.normal(size=(50, 6))
        fs = fit_multi(Xs, k=2, tau=0.5)
        ft = fit_multi(Xt, k=2, tau=0.6)
        dm = distance_matrix(fs, ft)
        assert dm.shape == (len(fs), len(ft))
        for i, s in enumerate(fs.subspaces):
            for j, t in enumerate(ft.subspaces):
                expected = directional_distance(s, t)
                assert dm[i, j] == pytest.approx(expected, abs=1e-12)

    def test_values_read_only(self, rng):
        X = rng.normal(size=(30, 4))
        fit = fit_multi(X, k=2, tau=1.0)
        dm = distance_matrix(fit, fit)
        with pytest.raises(ValueError):
            dm[0, 0] = 5.0

    def test_shape_validation(self, rng):
        fs = fit_multi(rng.normal(size=(30, 4)), k=2, tau=1.0)
        ft = fit_multi(rng.normal(size=(30, 5)), k=2, tau=1.0)
        with pytest.raises(DimensionMismatchError):
            distance_matrix(fs, ft)
