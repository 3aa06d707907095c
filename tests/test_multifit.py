"""Greedy decomposition of a dataset into a union of subspaces."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from msa import multifit
from msa.exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from msa.multifit import SubspaceCollection, fit_multi
from msa.subspace import _CHECK_ROWS, FeatureMatrix, Subspace, fit_pca, reconstruction_errors
from msa.synthetic import planted_benchmark

from conftest import GRAM_SCORE_TOL, random_orthonormal


class TestFitSettings:
    """The settings fit_multi takes alongside the data."""

    def test_tau_one_allowed(self):
        # tau lies in (0, 1]: the closed upper end is a valid setting.
        X = np.arange(30.0).reshape(10, 3) ** 2
        fit_multi(X, k=2, tau=1.0)


class TestSubspaceCollection:
    def test_accessors(self, rng):
        basis = random_orthonormal(rng, 4, 2)
        sub = Subspace(basis, np.zeros(4))
        coll = SubspaceCollection(
            subspaces=(sub, sub),
            assignment=np.array([0, 1, 0, 1]),
            coords=(np.zeros((2, 2)), np.zeros((2, 2))),
        )
        assert len(coll) == 2
        assert coll.subspaces[1] is sub
        assert not coll.assignment.flags.writeable

    def test_every_id_must_appear(self, rng):
        sub = Subspace(random_orthonormal(rng, 4, 2), np.zeros(4))
        with pytest.raises(DegenerateDataError):
            SubspaceCollection(
                subspaces=(sub, sub),
                assignment=np.array([0, 0, 0]),
                coords=(np.zeros((3, 2)), np.zeros((0, 2))),
            )

    def test_assignment_bounds(self, rng):
        sub = Subspace(random_orthonormal(rng, 4, 2), np.zeros(4))
        # A position past the end, and the -1 that fit_multi leaves on an
        # unassigned sample.
        for assignment in ([0, 1], [0, -1]):
            with pytest.raises(DegenerateDataError):
                SubspaceCollection(
                    subspaces=(sub,), assignment=np.array(assignment), coords=(np.zeros((2, 2)),)
                )

    @pytest.mark.parametrize("assignment, present", [
        ([0, 0, 0], "[0]"), ([0, 2, 1], "[0, 1, 2]"), ([1, -1], "[-1, 1]"), ([], "[]"),
    ])
    def test_error_names_the_positions_present(self, rng, assignment, present):
        sub = Subspace(random_orthonormal(rng, 4, 2), np.zeros(4))
        message = f"every position 0..1 and no other value, got {present}"
        with pytest.raises(DegenerateDataError, match=re.escape(message)):
            SubspaceCollection(
                subspaces=(sub, sub), assignment=np.array(assignment, dtype=int),
                coords=(np.zeros((1, 2)), np.zeros((1, 2))),
            )

    def test_coords_shape_checked(self, rng):
        """Each coordinate block must be (samples assigned, subspace rank)."""
        sub = Subspace(random_orthonormal(rng, 4, 2), np.zeros(4))
        assignment = np.array([0, 1, 0])
        for coords in (
            (np.zeros((2, 2)), np.zeros((1, 1))),  # wrong rank
            (np.zeros((1, 2)), np.zeros((2, 2))),  # wrong counts
            (np.zeros((2, 2)),),  # missing block
        ):
            with pytest.raises(DimensionMismatchError):
                SubspaceCollection(subspaces=(sub, sub), assignment=assignment, coords=coords)


class TestFittable:
    """``_fittable`` checks the picked rows a block at a time instead of copying them all."""

    def test_needs_two_rows(self):
        pool = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert not multifit._fittable(pool, np.flatnonzero([True, False]))
        assert not multifit._fittable(pool, np.flatnonzero([False, False]))
        assert multifit._fittable(pool, np.flatnonzero([True, True]))

    def test_reads_only_the_masked_rows(self):
        pool = np.array([[1.0, 2.0], [5.0, 5.0], [1.0, 2.0], [1.0, 2.0]])
        assert not multifit._fittable(pool, np.flatnonzero([True, False, True, True]))
        assert multifit._fittable(pool, np.flatnonzero([True, True, False, False]))

    @pytest.mark.parametrize("odd", [1, _CHECK_ROWS, _CHECK_ROWS + 1, 199])
    def test_finds_a_different_row_in_any_block(self, odd):
        pool = np.ones((200, 3))
        pool[odd, 2] = 2.0
        rows = np.ones(200, dtype=bool)
        assert multifit._fittable(pool, np.flatnonzero(rows))
        rows[odd] = False
        assert not multifit._fittable(pool, np.flatnonzero(rows))

    def test_signed_zeros_are_identical(self):
        # ``!=`` counts -0.0 and 0.0 as equal; so must the column extremes.
        pool = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
        assert not multifit._fittable(pool, np.arange(3))

    def test_rows_are_not_copied(self, rng):
        pool = rng.normal(size=(2000, 100))
        rows = rng.random(2000) < 0.9
        tracemalloc.start()
        try:
            assert multifit._fittable(pool, np.flatnonzero(rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool.nbytes / 10


class TestFitMulti:
    def test_single_subspace_when_tau_is_one(self, rng):
        """tau = 1.0 gives plain PCA when fewer than k samples are orthogonal to it.

        Only a sample with error exactly 1.0 is an outlier at tau = 1.0; on
        Gaussian data there is none.  max_subspaces = 1 is what guarantees a
        single subspace, see ``test_one_subspace_when_capped_at_one``.
        """
        X = rng.normal(size=(40, 6))
        fit = fit_multi(X, k=3, tau=1.0)
        ref = fit_pca(X, 3)
        assert len(fit) == 1
        assert np.array_equal(fit.subspaces[0].basis, ref.basis)
        assert np.array_equal(fit.subspaces[0].mean, ref.mean)
        assert np.all(fit.assignment == 0)

    def test_one_subspace_when_capped_at_one(self):
        # Two samples lie orthogonal to the top direction (error exactly 1.0),
        # so tau = 1.0 alone peels them off; the cap of one does not.
        X = np.array([[3, 0], [-3, 0], [2, 0], [-2, 0], [0, 1], [0, -1]], dtype=float)
        assert len(fit_multi(X, k=1, tau=1.0)) == 2
        fit = fit_multi(X, k=1, tau=1.0, max_subspaces=1)
        assert len(fit) == 1
        assert np.array_equal(fit.subspaces[0].basis, fit_pca(X, 1).basis)
        assert np.all(fit.assignment == 0)

    def test_default_cap_is_16(self, rng):
        # Uncapped, this Gaussian sample peels into about 50 subspaces.
        fit = fit_multi(rng.normal(size=(400, 10)), k=2, tau=0.2)
        assert len(fit) == 16

    def test_settings_validated(self):
        X = np.arange(30.0).reshape(10, 3) ** 2
        for k, tau, max_subspaces, named in (
            (0, 0.5, 16, "k"),
            (2, 0.0, 16, "tau"),
            (2, 1.5, 16, "tau"),
            (2, 0.5, 0, "max_subspaces"),
            # A fractional cap never equals a subspace count, so it would
            # silently lift the cap; a bool is not a count either.
            (2, 0.2, 2.5, "max_subspaces"),
            (2, 0.2, True, "max_subspaces"),
            (True, 0.2, 16, "k"),
            (2.0, 0.2, 16, "k"),
            # True would run as tau = 1.0, the loosest threshold.
            (2, True, 16, "tau"),
        ):
            with pytest.raises(ConfigError, match=f"^{named} must be"):
                fit_multi(X, k=k, tau=tau, max_subspaces=max_subspaces)

    def test_single_plane_stays_single(self, rng):
        basis = random_orthonormal(rng, 8, 2)
        coeff = rng.normal(size=(60, 2)) * [3.0, 1.5]
        X = coeff @ basis.T + rng.normal(size=(60, 8)) * 0.01
        fit = fit_multi(X, k=2, tau=0.3)
        assert len(fit) == 1

    def test_recovers_planted_planes(self):
        """Two orthogonal planes come back within 5 degrees, assignments pure."""
        for seed in range(5):
            src, tgt, info = planted_benchmark(seed=seed)
            for fm, planes in ((src, info["source_planes"]), (tgt, info["target_planes"])):
                fit = fit_multi(fm, k=2, tau=0.3)
                assert len(fit) == 2
                assert fit.tau_escalations == 0
                for sub in fit.subspaces:
                    worst = min(
                        np.degrees(subspace_angles(sub.basis, plane)).max()
                        for plane in planes
                    )
                    assert worst < 5.0

    def test_error_contract(self, rng):
        """Non-final subspaces reconstruct every assigned sample below tau."""
        X = np.vstack([
            rng.normal(size=(40, 2)) @ random_orthonormal(rng, 6, 2).T,
            rng.normal(size=(40, 2)) @ random_orthonormal(rng, 6, 2).T,
            rng.normal(size=(10, 6)) * 2.0,
        ])
        tau = 0.25
        fit = fit_multi(X, k=2, tau=tau)
        assert fit.tau_escalations == 0
        for i, sub in enumerate(fit.subspaces[:-1]):
            members = X[fit.assignment == i]
            errs, _ = reconstruction_errors(members, sub)
            assert np.all(errs < tau)

    def test_termination_and_coverage_randomized(self, rng):
        """Random data and configs: always terminates, assigns every sample."""
        for _ in range(50):
            n = int(rng.integers(5, 80))
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, min(n - 1, d) + 1))
            tau = float(rng.uniform(0.05, 1.0))
            X = rng.normal(size=(n, d))
            if rng.random() < 0.3:
                X[: n // 2] @= np.diag(rng.uniform(0.1, 2.0, size=d))
            max_subspaces = int(rng.integers(1, 8))
            fit = fit_multi(X, k=k, tau=tau, max_subspaces=max_subspaces)
            assert len(fit) <= max_subspaces
            assert fit.assignment.shape == (n,)
            assert set(np.unique(fit.assignment)) == set(range(len(fit)))
            for sub in fit.subspaces:
                assert 1 <= sub.rank <= k

    def test_max_subspaces_caps_growth(self, rng):
        planes = [random_orthonormal(rng, 10, 1) for _ in range(6)]
        X = np.vstack([
            rng.normal(size=(15, 1)) @ p.T + rng.normal(size=(15, 10)) * 0.001
            for p in planes
        ])
        fit = fit_multi(X, k=1, tau=0.05, max_subspaces=3)
        assert len(fit) == 3

    def test_positions_are_dense(self, rng):
        X = rng.normal(size=(50, 5))
        fit = fit_multi(X, k=2, tau=0.3)
        assert len(fit) > 1
        assert np.array_equal(np.unique(fit.assignment), np.arange(len(fit)))

    def test_accepts_feature_matrix(self, rng):
        X = rng.normal(size=(30, 4))
        a = fit_multi(FeatureMatrix(X), k=2, tau=0.4)
        b = fit_multi(X, k=2, tau=0.4)
        assert len(a) == len(b)
        assert np.array_equal(a.assignment, b.assignment)

    def test_round_that_keeps_its_whole_pool_is_last(self):
        """A refit that reconstructs every pool sample ends the peel.

        The second round's refit keeps all of its pool, so no rest is left.
        """
        X = np.array([
            [-0.0, 5.5], [-0.5, 7.5], [-0.5, 14.5], [2.5, -8.0], [1.0, 8.5],
            [1.0, -2.0], [0.0, 4.0], [0.0, 15.0], [2.5, -5.0], [-1.0, -9.5],
        ])
        fit = fit_multi(X, k=1, tau=0.01)
        assert len(fit) == 2
        assert fit.assignment.tolist() == [1, 1, 0, 0, 1, 0, 1, 0, 0, 1]
        assert fit.tau_escalations == 0

    def test_tau_relaxed_after_refit_keeps_a_sample(self):
        """A refit may reconstruct no pool sample within tau.

        The round then doubles tau until it keeps one, and every doubling is
        counted in tau_escalations.
        """
        X = np.array([
            [4.276691834859499, -7.265069962417256, 3.0615834092281413],
            [3.2766918348594993, -8.265069962417256, 2.5615834092281413],
            [5.776691834859499, -8.265069962417256, 0.5615834092281413],
            [3.2766918348594993, -6.765069962417256, 2.5615834092281413],
            [4.276691834859499, -6.765069962417256, 3.0615834092281413],
            [0.0, 1.0, -1.5], [0.0, 0.0, 0.5], [-0.5, 0.5, -0.5],
            [1.0, -0.0, -0.5], [-0.0, -0.0, -1.0],
        ])
        fit = fit_multi(X, k=1, tau=0.01)
        assert len(fit) == 6
        assert fit.assignment.tolist() == [5, 4, 3, 5, 1, 1, 2, 0, 1, 2]
        assert fit.tau_escalations == 4

    def test_degenerate_pool_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_multi(np.ones((5, 3)), k=1, tau=0.5)
        # Non-finite samples fail as a package error, not inside the SVD.
        X = np.arange(15.0).reshape(5, 3) ** 2
        X[1, 2] = np.nan
        with pytest.raises(DegenerateDataError):
            fit_multi(X, k=1, tau=0.5)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 60),
    d=st.integers(2, 9),
    k_frac=st.floats(0.0, 1.0),
    tau=st.floats(0.05, 1.0),
    max_subspaces=st.integers(1, 6),
)
def test_coords_are_projections_of_assigned_samples(seed, n, d, k_frac, tau, max_subspaces):
    """Every coords block is its members projected onto its own subspace."""
    rng = np.random.default_rng(seed)
    k = 1 + int(k_frac * (min(n - 1, d) - 1))
    X = rng.normal(size=(n, d))
    fit = fit_multi(X, k=k, tau=tau, max_subspaces=max_subspaces)
    assert len(fit.coords) == len(fit)
    for i, (sub, block) in enumerate(zip(fit.subspaces, fit.coords)):
        members = X[fit.assignment == i]
        assert block.shape == (members.shape[0], sub.rank)
        assert np.allclose(block, (members - sub.mean) @ sub.basis, rtol=0.0, atol=1e-12)


@st.composite
def _fit_problem(draw):
    """Data of three kinds (isotropic, badly scaled, few repeated points)
    with settings in range, tau down to 1e-4 so that rounds escalate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(n - 1, d)))
    tau = draw(st.one_of(st.floats(0.01, 1.0), st.floats(-4.0, 0.0).map(lambda e: 10.0**e)))
    kind = draw(st.sampled_from(["isotropic", "scaled", "repeated"]))
    if kind == "isotropic":
        X = rng.normal(size=(n, d))
    elif kind == "scaled":
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2, size=d)
    else:
        points = rng.integers(-2, 3, size=(draw(st.integers(1, 4)), d)).astype(float)
        X = points[rng.integers(0, len(points), size=n)]
    return X, k, tau, draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(problem=_fit_problem())
def test_fit_multi_properties(problem):
    """Termination, coverage, dense positions and the escalation bound.

    Each round adds one subspace and fits at most two PCAs, so a run makes
    at most 2 * len(fit) fit_pca calls.  Errors lie in [0, 1], so a round
    stops doubling its threshold once it exceeds 1: at most e doublings,
    where tau * 2**(e - 1) <= 1 < tau * 2**e.
    """
    X, k, tau, max_subspaces = problem
    if np.all(X == X[0]):
        with pytest.raises(DegenerateDataError):
            fit_multi(X, k=k, tau=tau, max_subspaces=max_subspaces)
        return
    with mock.patch.object(multifit, "fit_pca", wraps=fit_pca) as counted:
        fit = fit_multi(X, k=k, tau=tau, max_subspaces=max_subspaces)
    m = len(fit)
    assert 1 <= m <= max_subspaces
    assert counted.call_count <= 2 * m
    assert fit.assignment.shape == (X.shape[0],)
    assert np.array_equal(np.unique(fit.assignment), np.arange(m))
    assert all(1 <= sub.rank <= k for sub in fit.subspaces)
    doublings, threshold = 0, tau
    while threshold <= 1.0:
        threshold *= 2.0
        doublings += 1
    assert 0 <= fit.tau_escalations <= m * doublings


@settings(max_examples=100, deadline=None)
@given(problem=_fit_problem(), other_tau=st.floats(0.01, 1.0))
def test_memoized_first_round_is_bit_identical(problem, other_tau):
    """A FeatureMatrix whose first round is already memoized fits exactly as
    a fresh array does, bit for bit.  The memo holds the very read-only
    subspace fit_pca returned on the whole domain and its read-only errors
    and coordinates, and a second fit neither fits nor scores the whole
    domain again."""
    X, k, tau, max_subspaces = problem
    if np.all(X == X[0]):
        return
    fm = FeatureMatrix(X)
    fitted, scored = [], []

    def recording_fit_pca(data, rank):
        fitted.append((data, fit_pca(data, rank)))
        return fitted[-1][1]

    def recording_errors(data, subspace):
        scored.append(data)
        return reconstruction_errors(data, subspace)

    with mock.patch.object(multifit, "fit_pca", side_effect=recording_fit_pca), \
            mock.patch.object(multifit, "reconstruction_errors", side_effect=recording_errors):
        fit_multi(fm, k=k, tau=other_tau, max_subspaces=max_subspaces)
        first_fits, first_scores = len(fitted), len(scored)
        warm = fit_multi(fm, k=k, tau=tau, max_subspaces=max_subspaces)
    whole_k = min(k, X.shape[0])
    assert fitted[0][0] is fm and scored[0] is fm
    base, errors, coords = fm._first_rounds[whole_k]
    assert base is fitted[0][1]
    assert not base.basis.flags.writeable and not base.mean.flags.writeable
    assert not errors.flags.writeable and not coords.flags.writeable
    assert all(data is not fm for data, _ in fitted[first_fits:])
    assert all(data is not fm for data in scored[first_scores:])
    # The memo holds what a first round computes on a copy of the rows, bit
    # for bit, and matches the d-space scoring of an array copy.
    copy = FeatureMatrix(X.copy())
    fresh = fit_pca(copy, whole_k)
    assert np.array_equal(base.basis, fresh.basis)
    assert np.array_equal(base.mean, fresh.mean)
    fresh_errors, fresh_coords = reconstruction_errors(copy, fresh)
    assert np.array_equal(errors, fresh_errors)
    assert np.array_equal(coords, fresh_coords)
    _assert_matches_the_d_space(X, base, errors, coords)

    cold = fit_multi(X.copy(), k=k, tau=tau, max_subspaces=max_subspaces)
    assert len(warm) == len(cold)
    assert np.array_equal(warm.assignment, cold.assignment)
    assert warm.tau_escalations == cold.tau_escalations
    for a, b in zip(warm.subspaces, cold.subspaces):
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.mean, b.mean)
    for a, b in zip(warm.coords, cold.coords):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(60, 12), (12, 60)], ids=["tall", "wide"])
def test_one_first_round_per_domain(shape):
    """Fits at every k and tau share one eigendecomposition of the whole
    domain, and score it once per k; the errors and coordinates kept are
    read-only, equal the first round of a fresh copy of the rows bit for
    bit, and match reconstruction_errors of an array copy: bit for bit when
    tall, within GRAM_SCORE_TOL when scored from the wide domain's Gram."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=shape) * 10.0 ** rng.uniform(-1, 1, size=shape[1])
    fm = FeatureMatrix(X)
    ks, taus = (1, 3, 5), (0.1, 0.3, 0.6)
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(multifit, "fit_pca", wraps=fit_pca) as fitted, \
            mock.patch.object(multifit, "reconstruction_errors", wraps=reconstruction_errors) as scored:
        for k in ks:
            for tau in taus:
                fit_multi(fm, k=k, tau=tau)
    whole_fits = sum(call.args[0] is fm for call in fitted.call_args_list)
    assert whole_fits == len(ks)
    # Every fit of a pool decomposes once; the whole domain, once in all.
    assert eigh.call_count == fitted.call_count - whole_fits + 1
    assert sum(call.args[0] is fm for call in scored.call_args_list) == len(ks)
    for k in ks:
        base, errors, coords = fm._first_rounds[k]
        assert not errors.flags.writeable and not coords.flags.writeable
        copy = FeatureMatrix(X.copy())
        fresh_errors, fresh_coords = reconstruction_errors(copy, fit_pca(copy, k))
        assert np.array_equal(errors, fresh_errors)
        assert np.array_equal(coords, fresh_coords)
        assert (base._gram is not None) == (shape[0] < shape[1])
        _assert_matches_the_d_space(X, base, errors, coords)


def _assert_matches_the_d_space(X, base, errors, coords):
    """A first round's errors and coordinates against reconstruction_errors
    of an array copy of X: bit for bit unless scored from a kept Gram, and
    then within GRAM_SCORE_TOL (see conftest)."""
    d_errors, d_coords = reconstruction_errors(X.copy(), base)
    if base._gram is None:
        assert np.array_equal(errors, d_errors)
        assert np.array_equal(coords, d_coords)
    else:
        assert np.abs(errors - d_errors).max() <= GRAM_SCORE_TOL
        assert np.abs(coords - d_coords).max() <= GRAM_SCORE_TOL * np.abs(d_coords).max()


def test_coords_come_from_the_scoring():
    """An SA fit (tau 1.0) keeps the first round's coordinates as its one
    block, bit for bit, and the coordinates cost no scoring call of their
    own: 1 call for SA, 3 for the planted source at k 2, tau 0.3, and 15
    for an isotropic draw whose rounds escalate."""
    src, _, _ = planted_benchmark(seed=0)
    sa = fit_multi(src, k=2, tau=1.0)
    _, _, coords = src._first_rounds[2]
    assert len(sa) == 1
    assert np.array_equal(sa.coords[0], coords)

    iso = np.random.default_rng(3).normal(size=(60, 6))
    for data, tau, max_subspaces, calls in [
        (src.data, 1.0, 16, 1),
        (src.data, 0.3, 16, 3),
        (iso, 0.05, 8, 15),
    ]:
        with mock.patch.object(multifit, "reconstruction_errors", wraps=reconstruction_errors) as scored:
            fit_multi(data, k=2, tau=tau, max_subspaces=max_subspaces)
        assert scored.call_count == calls
