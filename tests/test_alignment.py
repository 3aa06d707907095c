"""Closed-form alignment of matched subspace pairs and feature building."""

import numpy as np
import pytest

from msa.alignment import build_features
from msa.exceptions import ConfigError, DimensionMismatchError
from msa.grassmann import distance_matrix
from msa.matching import Matching, greedy_match
from msa.multifit import fit_multi

from conftest import random_orthonormal, span


def _transform(source, target):
    """A pair's transform: the leading r0 x r0 corner of its overlap."""
    r0 = min(source.rank, target.rank)
    return distance_matrix((source,), (target,))[1][:r0, :r0]


class TestAlignPair:
    """The transform of one matched pair, read from its overlap block."""

    def test_identical_subspaces_reproduce_target(self, rng):
        basis = random_orthonormal(rng, 6, 2)
        transform = _transform(span(basis), span(basis))
        assert np.allclose(basis @ transform, basis, atol=1e-12)

    def test_orthogonal_subspaces_collapse(self):
        e = np.eye(4)
        transform = _transform(span(e[:, :2]), span(e[:, 2:4]))
        assert np.allclose(transform, 0.0)

    def test_transform_is_frobenius_optimal(self, rng):
        """No other r x r transform brings the source basis closer (500 draws)."""
        bs = random_orthonormal(rng, 8, 3)
        bt = random_orthonormal(rng, 8, 3)
        best = np.linalg.norm(bs @ _transform(span(bs), span(bt)) - bt)
        for _ in range(500):
            candidate = rng.normal(size=(3, 3)) * rng.uniform(0.2, 2.0)
            assert best <= np.linalg.norm(bs @ candidate - bt) + 1e-9

    def test_transform_is_stationary(self, rng):
        """Small perturbations of the optimal transform never help."""
        bs = random_orthonormal(rng, 6, 2)
        bt = random_orthonormal(rng, 6, 2)
        star = _transform(span(bs), span(bt))
        best = np.linalg.norm(bs @ star - bt)
        for _ in range(100):
            e = rng.normal(size=(2, 2))
            e *= 1e-3 / np.linalg.norm(e)
            assert best <= np.linalg.norm(bs @ (star + e) - bt) + 1e-15

    def test_alignment_reduces_gap_to_target(self, rng):
        """For a rotated pair the aligned basis is closer than the raw one."""
        bs = random_orthonormal(rng, 6, 2)
        q, r = np.linalg.qr(np.eye(6) + 0.3 * rng.normal(size=(6, 6)))
        bt = q @ bs
        transform = _transform(span(bs), span(bt))
        assert np.linalg.norm(bs @ transform - bt) < np.linalg.norm(bs - bt)

    def test_rank_mismatch_truncates(self, rng):
        bs = random_orthonormal(rng, 7, 3)
        bt = random_orthonormal(rng, 7, 2)
        transform = _transform(span(bs), span(bt))
        assert transform.shape == (2, 2)
        assert np.allclose(transform, bs[:, :2].T @ bt, atol=1e-12)

    def test_ambient_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            _transform(
                span(random_orthonormal(rng, 4, 2)),
                span(random_orthonormal(rng, 5, 2)),
            )


class TestBuildFeatures:
    def _paired_fits(self, rng, n=80, d=6, k=2, tau=0.4):
        Xs = rng.normal(size=(n, d))
        Xt = rng.normal(size=(n, d))
        fs = fit_multi(Xs, k=k, tau=tau)
        ft = fit_multi(Xt, k=k, tau=tau)
        distances, overlap = distance_matrix(fs.subspaces, ft.subspaces)
        return Xs, Xt, fs, ft, greedy_match(distances), overlap

    def test_shapes_and_common_dimension(self, rng):
        Xs, Xt, fs, ft, matching, overlap = self._paired_fits(rng)
        fa, fb = build_features(fs, ft, matching, overlap)
        assert fa.shape[0] == Xs.shape[0]
        assert fb.shape[0] == Xt.shape[0]
        assert fa.shape[1] == fb.shape[1]
        r = fa.shape[1]
        assert r <= min(s.rank for s in ft.subspaces)

    def test_rows_follow_assignments(self, rng):
        Xs, Xt, fs, ft, matching, overlap = self._paired_fits(rng)
        fa, fb = build_features(fs, ft, matching, overlap)
        r = fa.shape[1]
        # Independent of the coordinate form: the d x r aligned basis
        # Bs Bs^T Bt applied to the raw samples of each pair.
        for i, j, _ in matching.pairs:
            src = fs.subspaces[i]
            tgt = ft.subspaces[j]
            bs = src.basis[:, : min(src.rank, tgt.rank)]
            bt = tgt.basis[:, : bs.shape[1]]
            mask = fs.assignment == i
            expected = (Xs[mask] - src.mean) @ (bs @ bs.T @ bt)[:, :r]
            assert np.allclose(fa[mask], expected, atol=1e-12)
        for j, tgt in enumerate(ft.subspaces):
            tmask = ft.assignment == j
            expected_t = (Xt[tmask] - tgt.mean) @ tgt.basis[:, :r]
            assert np.allclose(fb[tmask], expected_t, atol=1e-12)

    def test_identical_single_subspace_domains_coincide(self, rng):
        basis = random_orthonormal(rng, 5, 2)
        coeff = rng.normal(size=(40, 2))
        X = coeff @ basis.T
        fit = fit_multi(X, k=2, tau=1.0)
        distances, overlap = distance_matrix(fit.subspaces, fit.subspaces)
        fa, fb = build_features(fit, fit, greedy_match(distances), overlap)
        assert np.allclose(fa, fb, atol=1e-10)

    def test_matching_must_cover_sources(self, rng):
        _, _, fs, ft, _, overlap = self._paired_fits(rng)
        bogus = Matching(pairs=((99, 1, 0.0),), policy="one_to_one")
        with pytest.raises(ConfigError):
            build_features(fs, ft, bogus, overlap)

    def test_matched_targets_must_exist(self, rng):
        """A target position outside 0..m_t - 1 is named, not sliced."""
        _, _, fs, ft, matching, overlap = self._paired_fits(rng, k=1, tau=0.2)
        m_t = len(ft)
        for j in (-1, m_t):
            bogus = Matching(
                pairs=tuple((i, j, 0.0) for i, _, _ in matching.pairs),
                policy=matching.policy,
            )
            with pytest.raises(ConfigError, match="target positions"):
                build_features(fs, ft, bogus, overlap)

    def test_overlap_shape_checked(self, rng):
        _, _, fs, ft, matching, overlap = self._paired_fits(rng)
        for wrong in (overlap[:-1], overlap[:, :-1], overlap.T[:, :0]):
            with pytest.raises(DimensionMismatchError, match="overlap"):
                build_features(fs, ft, matching, wrong)
