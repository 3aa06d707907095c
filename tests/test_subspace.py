"""Subspace fitting, reconstruction error and coordinates."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msa.exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from msa import subspace
from msa.subspace import (
    ORTHONORMAL_TOL,
    FeatureMatrix,
    Subspace,
    _gram_spectrum,
    _Rows,
    fit_pca,
    reconstruction_errors,
)

from conftest import (
    GRAM_SCORE_TOL,
    PROJECTOR_TOL,
    random_orthonormal,
    svd_pca_basis,
    total_reconstruction_error,
)


class TestFeatureMatrix:
    def test_copies_and_freezes(self):
        raw = np.ones((3, 2))
        fm = FeatureMatrix(raw)
        raw[0, 0] = 7.0
        assert fm.data[0, 0] == 1.0
        with pytest.raises(ValueError):
            fm.data[0, 0] = 9.0

    def test_copy_false_keeps_a_float64_array(self):
        raw = np.arange(6.0).reshape(3, 2)
        fm = FeatureMatrix(raw, copy=False)
        assert fm.data is raw
        assert not raw.flags.writeable

    @pytest.mark.parametrize(
        "raw",
        [np.arange(6).reshape(3, 2), np.asfortranarray(np.arange(6.0).reshape(3, 2))],
        ids=["int", "fortran-order"],
    )
    def test_copy_false_still_copies_what_it_must_convert(self, raw):
        fm = FeatureMatrix(raw, copy=False)
        assert not np.shares_memory(fm.data, raw)
        assert raw.flags.writeable
        assert fm.data.dtype == np.float64 and fm.data.flags.c_contiguous

    def test_copy_false_checks_before_freezing(self):
        raw = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(DegenerateDataError):
            FeatureMatrix(raw, copy=False)
        assert raw.flags.writeable

    def test_shape_properties(self):
        fm = FeatureMatrix(np.zeros((5, 3)))
        assert fm.n_samples == 5
        assert fm.n_features == 3
        assert fm.labels is None

    def test_labels_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            FeatureMatrix(np.zeros((4, 2)), labels=[0, 1])

    def test_integral_float_labels_accepted(self):
        """Labels read from a .mat file are usually floats such as 1.0."""
        fm = FeatureMatrix(np.zeros((3, 2)), labels=np.array([1.0, 0.0, -2.0]))
        assert fm.labels.dtype == np.int64
        assert np.array_equal(fm.labels, [1, 0, -2])

    @pytest.mark.parametrize(
        "labels",
        [
            [0.5, 1.7, 2.9],
            [0.0, np.nan, 2.0],
            [0.0, 1.0, np.inf],
            [0.0, 1.0, 1e30],
            ["a", "b", "c"],
            [0, None, 2],
            np.array([0, 1, 2**64 - 1], dtype=np.uint64),
        ],
        ids=["fractional", "nan", "inf", "out-of-range", "strings", "none", "uint64-wrap"],
    )
    def test_non_integer_labels_rejected(self, labels):
        """A cast to int64 would truncate or wrap these instead of failing."""
        with pytest.raises(DegenerateDataError):
            FeatureMatrix(np.zeros((3, 2)), labels=labels)

    def test_rejects_non_finite(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(DegenerateDataError):
            FeatureMatrix(bad)

    def test_rejects_empty_and_1d(self):
        with pytest.raises(DegenerateDataError):
            FeatureMatrix(np.zeros((0, 2)))
        with pytest.raises(DimensionMismatchError):
            FeatureMatrix(np.zeros(5))


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        basis = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateDataError):
            Subspace(basis, np.zeros(3))

    def test_rejects_rank_above_ambient(self):
        basis = np.eye(2)
        with pytest.raises(DimensionMismatchError):
            Subspace(np.vstack([basis, basis]).T, np.zeros(2))

    def test_properties(self, rng):
        basis = random_orthonormal(rng, 6, 2)
        sub = Subspace(basis, np.zeros(6))
        assert sub.ambient_dim == 6
        assert sub.rank == 2

    def test_rejects_non_finite(self):
        # NaN fails every comparison, so the orthonormality check alone
        # would let an all-NaN basis through.
        with pytest.raises(DegenerateDataError):
            Subspace(np.full((3, 2), np.nan), np.zeros(3))
        with pytest.raises(DegenerateDataError):
            Subspace(np.eye(3)[:, :2], np.array([0.0, np.inf, 0.0]))


class TestFitPca:
    def test_matches_gram_eigendecomposition(self, rng):
        """Basis must span the top eigenvectors of the covariance."""
        for _ in range(20):
            n, d, k = 30, 7, 3
            X = rng.normal(size=(n, d)) @ np.diag([3.0, 2.5, 2.0, 0.5, 0.3, 0.2, 0.1])
            sub = fit_pca(X, k)
            centered = X - X.mean(axis=0)
            evals, evecs = np.linalg.eigh(centered.T @ centered)
            top = evecs[:, ::-1][:, :k]
            # same span: projection operators agree
            p1 = sub.basis @ sub.basis.T
            p2 = top @ top.T
            assert np.allclose(p1, p2, atol=1e-8)

    def test_sign_convention(self, rng):
        X = rng.normal(size=(25, 5))
        # Constant leading features put entries at or near zero (within
        # 1e-12, of either sign) at the top of every column, so a later
        # entry sets each column's sign.  The first six rows of ``padded``
        # are wide data, which take the other Gram matrix.
        padded = np.hstack([np.full((25, 2), 3.0), X])
        for data in (X, padded, padded[:6]):
            with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                sub = fit_pca(data, 3)
            assert svd.call_count == 0
            # The decomposition's own columns, before the flip: the top
            # eigenvectors V of C^T C, or for wide data the column-scaled
            # C^T V Lambda^{-1/2} of C C^T's, formed from the raw rows with
            # the weights scaled by a power of two, as fit_pca forms it.
            spectrum = _gram_spectrum(data)
            raw = spectrum.axes[:, :3]
            if data.shape[0] < data.shape[1]:
                weights = raw / np.sqrt(spectrum.values[:3])
                g = np.frexp(np.abs(weights).sum(axis=0).max())[1]
                weights = np.ldexp(weights, -g)
                mean = np.ldexp(spectrum.mean, spectrum.exponent)
                raw = np.ldexp(
                    data.T @ weights - np.outer(mean, weights.sum(axis=0)),
                    g - spectrum.exponent - spectrum.shift,
                )
            for col, direction in zip(sub.basis.T, raw.T):
                lead = col[np.abs(col) > 1e-12][0]
                assert lead >= 0.0
                # The flip is exact: the direction or its negation.
                assert np.array_equal(col, direction) or np.array_equal(col, -direction)
            ref = svd_pca_basis(data, 3)
            assert np.linalg.norm(sub.basis @ sub.basis.T - ref @ ref.T) <= PROJECTOR_TOL

    def test_deterministic(self, rng):
        X = rng.normal(size=(20, 4))
        a = fit_pca(X, 2)
        b = fit_pca(X.copy(), 2)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.mean, b.mean)

    def test_mean_is_column_mean(self, rng):
        X = rng.normal(size=(12, 4)) + 5.0
        sub = fit_pca(X, 2)
        assert np.allclose(sub.mean, X.mean(axis=0))

    def test_rank_deficient_returns_fewer_columns(self):
        # 4 points on a line in R^3: rank 1 regardless of k=2
        t = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.outer(t, [1.0, 2.0, 2.0])
        sub = fit_pca(X, 2)
        assert sub.rank == 1
        direction = np.array([1.0, 2.0, 2.0]) / 3.0
        assert np.allclose(np.abs(sub.basis[:, 0]), direction, atol=1e-12)

    def test_k_validation(self, rng):
        X = rng.normal(size=(6, 4))
        with pytest.raises(ConfigError):
            fit_pca(X, 0)
        with pytest.raises(ConfigError):
            fit_pca(X, 5)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateDataError):
            fit_pca(np.ones((1, 3)), 1)

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_pca(np.ones((5, 3)), 1)

    def test_identical_rows_degenerate_whatever_their_mean(self):
        # The mean of n copies of v need not round to v (it does not for
        # n = 7, v = 0.1), which would leave only rounding noise to fit.
        for n in (2, 3, 5, 7, 10, 49):
            for value in (0.1, 1 / 3, -7.3, 1e300, 5e-324):
                with pytest.raises(DegenerateDataError):
                    fit_pca(np.full((n, 4), value), 2)

    def test_non_finite_rejected(self, rng):
        for bad in (np.nan, np.inf):
            X = rng.normal(size=(6, 3))
            X[2, 1] = bad
            with pytest.raises(DegenerateDataError):
                fit_pca(X, 2)

    def test_accepts_feature_matrix(self, rng):
        X = rng.normal(size=(10, 3))
        a = fit_pca(FeatureMatrix(X), 2)
        b = fit_pca(X, 2)
        assert np.array_equal(a.basis, b.basis)

    @pytest.mark.parametrize("shape", [(30, 8), (8, 30), (12, 12)], ids=["tall", "wide", "square"])
    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_feature_matrix_fits_every_k_from_one_eigh(self, rng, shape, descending):
        """Fits of one FeatureMatrix at every k share one eigendecomposition
        and are bit for bit the fits of fresh copies of its rows, whatever
        order the ks come in; rank-deficient data included.  Wide ones scale
        the columns of C^T V, with no SVD."""
        n, d = shape
        for X in (rng.normal(size=shape) * 10.0 ** rng.uniform(-2, 2, size=d),
                  rng.normal(size=(n, 3)) @ rng.normal(size=(3, d)) + 5.0):
            fm = FeatureMatrix(X)
            ks = range(1, min(n, d) + 1)
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                    mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                fits = {k: fit_pca(fm, k) for k in (reversed(ks) if descending else ks)}
            assert eigh.call_count == 1 and svd.call_count == 0
            for k, sub in fits.items():
                fresh = fit_pca(X.copy(), k)
                assert np.array_equal(sub.basis, fresh.basis)
                assert np.array_equal(sub.mean, fresh.mean)

    def test_optimal_among_random_frames(self, rng):
        """No random frame reconstructs the data better (20 datasets x 200 frames)."""
        for _ in range(20):
            n = int(rng.integers(4, 11))
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(3, d) + 1))
            X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
            sub = fit_pca(X, k)
            best = total_reconstruction_error(X, sub)
            mean = X.mean(axis=0)
            for _ in range(200):
                frame = random_orthonormal(rng, d, sub.rank)
                other = Subspace(frame, mean)
                assert best <= total_reconstruction_error(X, other) + 1e-9


def _centred_frame(rng, n, p):
    """n x p orthonormal columns, each orthogonal to the all-ones vector."""
    a = rng.normal(size=(n, p))
    return np.linalg.qr(a - a.mean(axis=0))[0]


@st.composite
def _gapped_problem(draw):
    """Wide and tall data, offset, whose centred top k singular values lie
    in [1, 4] and the rest in [0, 0.1]: the inputs PROJECTOR_TOL is for."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 40))
    p = min(n - 1, d)
    k = draw(st.integers(1, p))
    svals = np.concatenate([rng.uniform(1.0, 4.0, k), rng.uniform(0.0, 0.1, p - k)])
    X = (_centred_frame(rng, n, p) * svals) @ random_orthonormal(rng, d, p).T
    return X + rng.normal(size=d) * draw(st.sampled_from([0.0, 1.0, 30.0])), k


@st.composite
def _rank_deficient_problem(draw):
    """Offset data of centred rank rho < k: a rank-rho product, or rho + 1
    affinely independent points, each repeated.  Directions span scales
    1e-3 to 4, so that a rank tolerance too loose by far drops some."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(2, 40))
    rho = draw(st.integers(1, min(n, d) - 1))
    k = draw(st.integers(rho + 1, min(n, d)))
    frame = random_orthonormal(rng, d, rho) * 10.0 ** rng.uniform(-3.0, 0.6, rho)
    if draw(st.booleans()):
        X = _centred_frame(rng, n, rho) @ frame.T
    else:
        points = np.vstack([np.zeros(d), frame.T])
        X = points[rng.permutation(np.arange(n) % (rho + 1))]
    return X + rng.normal(size=d), k, rho


@settings(max_examples=200, deadline=None)
@given(problem=_gapped_problem())
def test_fit_pca_matches_svd_reference(problem):
    """Differential against the economy SVD where the spectrum has a gap at k."""
    X, k = problem
    sub = fit_pca(X, k)
    ref = svd_pca_basis(X, k)
    assert sub.rank == ref.shape[1] == k
    assert np.linalg.norm(sub.basis @ sub.basis.T - ref @ ref.T) <= PROJECTOR_TOL
    assert np.array_equal(sub.mean, X.mean(axis=0))


@settings(max_examples=200, deadline=None)
@given(problem=_rank_deficient_problem())
def test_fit_pca_finds_the_true_rank(problem):
    """Exact rank-rho and repeated-point data give rho columns.

    The SVD reference is not asked: its tolerance, relative to the largest
    singular value alone, counts the rounding of the centring as a direction
    when the spread is small against the offset (two rows 1e-3 apart at
    offset 0.5 give it rank 2).
    """
    X, k, rho = problem
    assert fit_pca(X, k).rank == rho


@settings(max_examples=100, deadline=None)
@given(
    problem=st.one_of(_gapped_problem(), _rank_deficient_problem().map(lambda p: p[:2])),
    power=st.sampled_from([-300, 300, 1020]),
)
def test_fit_pca_exact_under_power_of_two_scaling(problem, power):
    """Data times 2^power fits the same basis bit for bit, with no overflow
    or warning; at 2^1020 the column sums behind a plain mean can overflow."""
    X, k = problem
    X = X / np.abs(X).max()
    base = fit_pca(X, k)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        scaled = fit_pca(X * 2.0**power, k)
    assert np.array_equal(scaled.basis, base.basis)
    assert np.array_equal(scaled.mean, base.mean * 2.0**power)


class TestReconstructionError:
    def test_in_span_is_zero(self, rng):
        basis = random_orthonormal(rng, 5, 2)
        sub = Subspace(basis, np.zeros(5))
        x = basis @ np.array([2.0, -1.0])
        assert reconstruction_errors(x[np.newaxis], sub)[0][0] < 1e-15

    def test_orthogonal_is_one(self):
        sub = Subspace(np.eye(3)[:, :1], np.zeros(3))
        assert reconstruction_errors([[0.0, 2.0, 0.0]], sub)[0][0] == pytest.approx(1.0)

    def test_half_energy(self):
        # x = (1, 1) against span{e1}: residual (0, 1), ratio 1/2
        sub = Subspace(np.eye(2)[:, :1], np.zeros(2))
        assert reconstruction_errors([[1.0, 1.0]], sub)[0][0] == pytest.approx(0.5)

    def test_mean_shift(self):
        sub = Subspace(np.eye(2)[:, :1], np.array([3.0, 4.0]))
        # sample equal to the mean centres to zero, reports zero
        assert reconstruction_errors([[3.0, 4.0]], sub)[0][0] == 0.0

    def test_range_and_vectorized_consistency(self, rng):
        X = rng.normal(size=(30, 6))
        sub = fit_pca(X, 2)
        errs, _ = reconstruction_errors(X, sub)
        assert errs.shape == (30,)
        assert np.all(errs >= 0.0) and np.all(errs <= 1.0)
        for i in range(30):
            assert errs[i] == pytest.approx(reconstruction_errors(X[i : i + 1], sub)[0][0], abs=1e-12)

    def test_full_rank_subspace_zero_error(self, rng):
        X = rng.normal(size=(20, 3))
        sub = fit_pca(X, 3)
        assert np.all(reconstruction_errors(X, sub)[0] < 1e-15)


# How far reconstruction_errors, 1 - ||B^T x||^2 / ||x||^2, may lie from the
# residual form ||x - B B^T x||^2 / ||x||^2 for a basis B that meets the
# orthonormality contract.  The two differ by c^T (B^T B - I) c / ||x||^2
# with c = B^T x, at most delta (1 + delta) for delta = ||B^T B - I||_F <=
# ORTHONORMAL_TOL.  Rounding of both forms adds about (d + 2 sqrt(r) d) eps
# < 2e-13 for the d <= 16 drawn here, pinned at 1e-12.
ERRORS_ATOL = ORTHONORMAL_TOL * (1 + ORTHONORMAL_TOL) + 1e-12


@st.composite
def _contract_basis(draw):
    """A Subspace whose basis is orthonormal, or off by up to the contract.

    B = Q (I + S) with Q orthonormal and S symmetric has B^T B - I = 2 S + S^2,
    so scaling ||S||_F to just under ORTHONORMAL_TOL / 2 puts the basis at
    the tolerance edge.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 16))
    r = draw(st.integers(1, d))
    basis = random_orthonormal(rng, d, r)
    edge = draw(st.sampled_from([0.0, 0.5, 0.99]))
    if edge:
        sym = rng.normal(size=(r, r))
        sym += sym.T
        basis = basis @ (np.eye(r) + sym * (edge * ORTHONORMAL_TOL / 2 / np.linalg.norm(sym)))
    return Subspace(basis, rng.normal(size=d)), rng


def _residual_form(X, sub):
    centred = X - sub.mean
    residual = centred - (centred @ sub.basis) @ sub.basis.T
    return np.clip(np.sum(residual**2, axis=1) / np.sum(centred**2, axis=1), 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(_contract_basis())
def test_errors_match_the_residual_form_under_the_contract(drawn):
    """Random samples score within ERRORS_ATOL of the residual form, and
    samples in the span score in [0, ERRORS_ATOL], at any basis the
    contract admits."""
    sub, rng = drawn
    d, r = sub.basis.shape
    X = sub.mean + rng.normal(size=(20, d)) * rng.uniform(0.1, 10.0, size=(20, 1))
    errors, _ = reconstruction_errors(X, sub)
    assert np.all(np.abs(errors - _residual_form(X, sub)) <= ERRORS_ATOL)
    in_span = sub.mean + rng.normal(size=(20, r)) @ sub.basis.T
    errors, _ = reconstruction_errors(in_span, sub)
    assert np.all((errors >= 0.0) & (errors <= ERRORS_ATOL))


class TestProject:
    """The coordinates reconstruction_errors returns with the errors."""

    def test_identity_basis(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        _, coords = reconstruction_errors(X, Subspace(np.eye(3), np.zeros(3)))
        assert np.array_equal(coords, X)

    def test_mean_subtracted(self):
        sub = Subspace(np.eye(3)[:, :2], np.array([1.0, 1.0, 1.0]))
        _, coords = reconstruction_errors([[4.0, 5.0, 6.0]], sub)
        assert np.allclose(coords, [[3.0, 4.0]])

    def test_single_sample_shape(self, rng):
        """One sample is a (1, d) row; a bare length-d vector is rejected."""
        sub = Subspace(random_orthonormal(rng, 4, 2), np.zeros(4))
        for n in (1, 3):
            errors, coords = reconstruction_errors(np.zeros((n, 4)), sub)
            assert errors.shape == (n,)
            assert coords.shape == (n, 2)
        with pytest.raises(DimensionMismatchError):
            reconstruction_errors(np.zeros(4), sub)

    def test_dimension_check(self, rng):
        sub = Subspace(random_orthonormal(rng, 4, 2), np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            reconstruction_errors(np.zeros((3, 5)), sub)

    def test_coords_are_exact_projection(self, rng):
        """The coordinates are (X - mean) @ basis bit for bit, for arrays and
        FeatureMatrix alike, when the subspace was not fitted from the
        FeatureMatrix's kept Gram (a wide one scores from K, within
        GRAM_SCORE_TOL; see test_gram_refits_match_the_d_space)."""
        X = rng.normal(size=(8, 5))
        sub = fit_pca(X, 2)
        errors, coords = reconstruction_errors(X, sub)
        assert np.array_equal(coords, (X - sub.mean) @ sub.basis)
        fm_errors, fm_coords = reconstruction_errors(FeatureMatrix(X), sub)
        assert np.array_equal(fm_coords, coords)
        assert np.array_equal(fm_errors, errors)


def _wide_union(rng, n, d, spread, offset=0.5, noise=0.01):
    """n samples in R^d, d > n, on three rank-6 planes through means about
    ``spread`` apart, with noise ``noise`` and every entry offset by ``offset``;
    also returns each sample's plane.  The centred spectrum of any union of
    its planes has a gap after 6 per plane."""
    means = rng.normal(size=(3, d)) * spread / np.sqrt(2 * d)
    frames = [random_orthonormal(rng, d, 6) for _ in range(3)]
    plane = np.arange(n) % 3
    X = np.stack([frames[c] @ rng.normal(size=6) for c in plane]) + means[plane]
    return X + noise * rng.normal(size=(n, d)) + offset, plane


class TestWideBasis:
    """Wide fits scale the columns of C^T V instead of taking its SVD."""

    @pytest.mark.parametrize("power", [-300, -7, 3, 300, 1020])
    def test_exact_under_power_of_two_scaling(self, rng, power):
        """The column-scaled basis is the same bit for bit for the data
        times 2^power, for a whole domain and for rows of it."""
        X, plane = _wide_union(rng, 60, 250, 2.0)
        X /= np.abs(X).max()
        rows = np.flatnonzero(plane != 1)
        fits = []
        for data in (X, X * 2.0**power):
            fm = FeatureMatrix(data)
            with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                whole = fit_pca(fm, 12)
                part = fit_pca(_Rows(fm, rows), 12)
                errors, coords = reconstruction_errors(_Rows(fm, np.arange(60)), part)
            assert svd.call_count == 0 and part._gram is not None
            fits.append((whole, part, errors, coords))
        (whole, part, errors, coords), (s_whole, s_part, s_errors, s_coords) = fits
        for a, b in ((whole, s_whole), (part, s_part)):
            assert np.array_equal(a.basis, b.basis)
            assert np.array_equal(a.mean * 2.0**power, b.mean)
        assert np.array_equal(errors, s_errors)
        assert np.array_equal(coords * 2.0**power, s_coords)

    def test_ill_conditioned_input_falls_back_to_the_svd(self, rng):
        """Eigenvalues from 1 down to just above the rank tolerance leave
        the column-scaled basis far outside the contract; the fit takes the
        SVD of C^T V instead, returns every direction within the contract
        and does not raise."""
        n, d = 40, 100
        # Squared singular values 1 .. 1e-11, sum about 1.1; the tolerance
        # is 2 (d + 2) eps trace(G), about 5e-14 trace(G).
        svals = np.sqrt(np.logspace(0, -11, n - 1))
        X = (_centred_frame(rng, n, n - 1) * svals) @ random_orthonormal(rng, d, n - 1).T
        spectrum = _gram_spectrum(X)
        assert spectrum.values[-1] > 2 * (d + 2) * np.finfo(np.float64).eps * spectrum.trace
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            sub = fit_pca(X, n - 1)
        assert svd.call_count == 1
        assert sub.rank == n - 1
        assert np.linalg.norm(sub.basis.T @ sub.basis - np.eye(n - 1)) <= ORTHONORMAL_TOL

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_rows_far_from_their_mean_take_the_svd(self, rng, offset):
        """The product of the raw rows loses sqrt(1 + m ||mean||^2 / trace)
        against centred rows; past 8 the basis comes from the SVD of a
        centred copy, and still matches the reference, for a whole domain
        and for rows of one."""
        X, plane = _wide_union(rng, 60, 200, 1.0, offset=offset)
        rows = np.flatnonzero(plane != 1)
        fm = FeatureMatrix(X)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            whole = fit_pca(fm, 18)
            part = fit_pca(_Rows(fm, rows), 12)
        assert svd.call_count == 2 and part._gram is None
        for sub, data, k in ((whole, X, 18), (part, X[rows], 12)):
            ref = svd_pca_basis(data, k)
            assert np.linalg.norm(sub.basis @ sub.basis.T - ref @ ref.T) <= PROJECTOR_TOL


def test_no_fallback_on_the_generated_domains():
    """On the benchmark's seed-0 decaf and surf domains (surf z-scored) no
    wide fit takes the SVD or fits a copy of its rows, and no scoring
    rescores a row from the rows, at the benchmark's k and tau."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import generate

    from msa.multifit import fit_multi
    from msa.pipeline import zscore

    fits, fallbacks = [], []

    def rows_fit(rows, k):
        out = fit_rows(rows, k)
        (fits if out is not None else fallbacks).append(rows.shape)
        return out

    fit_rows = subspace._fit_rows_from_gram
    for workload, ks in (("decaf-grid", (80,)), ("surf-grid", (20, 45, 80))):
        for name, (x, _) in generate.domains(workload, 0).items():
            if x.shape[0] >= x.shape[1]:
                continue
            fm = FeatureMatrix(zscore(x) if workload == "surf-grid" else x)
            with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                    mock.patch.object(subspace, "_fit_rows_from_gram", side_effect=rows_fit), \
                    mock.patch.object(subspace, "_centred_rows", wraps=subspace._centred_rows) as rescored:
                for k in ks:
                    for tau in (0.4, 0.6):
                        fit_multi(fm, k, tau)
            assert svd.call_count == 0, (workload, name)
            assert rescored.call_count == 0, (workload, name)
    assert fits and not fallbacks


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("spread", [0.0, 3.0, 6.0])
def test_gram_refits_match_the_d_space(seed, spread):
    """The whole domain's first round, refits of rows and their scoring from
    the kept Gram match a scoring of copied rows and a fit of them, for a
    random 70 % of the rows, for one plane's rows, whose mean lies far from
    the domain's when the spread is large (the cancellation case), and for
    two planes."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(60, 150)), int(rng.integers(200, 400))
    X, plane = _wide_union(rng, n, d, spread)
    fm = FeatureMatrix(X)
    whole = fit_pca(fm, 18)
    assert whole._gram is not None
    everyone = np.arange(n)
    for data, pool in ((fm, everyone), (_Rows(fm, everyone[::2]), everyone[::2])):
        errors, coords = reconstruction_errors(data, whole)
        d_errors, d_coords = reconstruction_errors(X[pool].copy(), whole)
        assert np.abs(errors - d_errors).max() <= GRAM_SCORE_TOL
        assert np.abs(coords - d_coords).max() <= GRAM_SCORE_TOL * np.abs(d_coords).max()
    for rows, k in ((np.flatnonzero(rng.random(n) < 0.7), 18),
                    (np.flatnonzero(plane == 0), 6),
                    (np.flatnonzero(plane != 1), 12)):
        sub = fit_pca(_Rows(fm, rows), k)
        ref = fit_pca(X[rows].copy(), k)
        assert sub._gram is not None
        assert sub.rank == ref.rank == k
        assert np.linalg.norm(sub.basis @ sub.basis.T - ref.basis @ ref.basis.T) <= PROJECTOR_TOL
        assert np.allclose(sub.mean, ref.mean, rtol=0.0, atol=1e-14)
        for pool in (everyone, rows):
            errors, coords = reconstruction_errors(_Rows(fm, pool), sub)
            d_errors, d_coords = reconstruction_errors(X[pool].copy(), sub)
            assert np.abs(errors - d_errors).max() <= GRAM_SCORE_TOL
            assert np.abs(coords - d_coords).max() <= GRAM_SCORE_TOL * np.abs(d_coords).max()


def test_far_rows_fall_back_to_the_d_space():
    """Rows whose mean lies so far from the domain's that the correction
    would cost more than 3 bits (here about 4) are fitted from a copy, bit
    for bit as a fresh array; pool rows near that mean are rescored from
    their rows."""
    rng = np.random.default_rng(5)
    X, plane = _wide_union(rng, 90, 300, 15.0)
    fm = FeatureMatrix(X)
    fit_pca(fm, 18)
    rows = np.flatnonzero(plane == 0)
    sub = fit_pca(_Rows(fm, rows), 6)
    ref = fit_pca(X[rows].copy(), 6)
    assert sub._gram is None
    assert np.array_equal(sub.basis, ref.basis) and np.array_equal(sub.mean, ref.mean)

    # At 0.4 of that distance the plane's rows are fitted from the
    # Gram, but scoring its own rows, close to their mean and far from the
    # domain's, would lose more than 3 bits: they are rescored from the rows.
    X, plane = _wide_union(np.random.default_rng(5), 90, 300, 6.0)
    fm = FeatureMatrix(X)
    fit_pca(fm, 18)
    sub = fit_pca(_Rows(fm, rows), 6)
    assert sub._gram is not None
    with mock.patch.object(subspace, "_centred_rows", wraps=subspace._centred_rows) as rescored:
        errors, coords = reconstruction_errors(_Rows(fm, np.arange(90)), sub)
    assert rescored.call_count == 1
    assert 0 < rescored.call_args.args[1].size < 90
    assert set(rescored.call_args.args[1]) <= set(rows)
    d_errors, d_coords = reconstruction_errors(X.copy(), sub)
    assert np.abs(errors - d_errors).max() <= GRAM_SCORE_TOL
    assert np.abs(coords - d_coords).max() <= GRAM_SCORE_TOL * np.abs(d_coords).max()


def test_rank_within_the_correction_is_left_to_the_d_space(rng):
    """A direction whose eigenvalue lies above the rows' own rank tolerance
    but within what the mean correction can move it by is counted from K,
    and its column-scaled basis falls outside the contract: the rows are
    fitted from a copy, which keeps it."""
    m, d = 40, 300
    frame = random_orthonormal(rng, d, 8)
    inner = _centred_frame(rng, m, 7) * np.r_[np.linspace(2.0, 1.0, 6), 0.0]
    # An eigenvalue of 5 (d + 2) eps trace, above the tolerance
    # 2 (d + 2) eps trace and below the correction's reach,
    # 3 (d + 2) eps times the uncorrected trace, about 3.8 times the trace.
    inner[:, 6] = _centred_frame(rng, m, 7)[:, 6] * np.sqrt(
        5 * (d + 2) * np.finfo(np.float64).eps * np.sum(inner**2)
    )
    others = rng.normal(size=(20, 6)) @ frame[:, :6].T * 0.5 + frame[:, 7] * 3.0
    X = np.vstack([inner @ frame[:, :7].T, others]) + 0.2
    fm = FeatureMatrix(X)
    fit_pca(fm, 7)
    rows = np.arange(m)
    scaled = []

    def recording(*args):
        scaled.append((args[2].shape[1], column_scaled(*args)))
        return scaled[-1][1]

    column_scaled = subspace._column_scaled
    with mock.patch.object(subspace, "_column_scaled", side_effect=recording):
        sub = fit_pca(_Rows(fm, rows), 7)
    assert sub._gram is None
    # The Gram path counted all 7, and its basis failed the contract.
    assert scaled[0] == (7, None)
    assert sub.rank == fit_pca(X[rows].copy(), 7).rank == 7


def test_rank_deficient_rows_are_fitted_from_the_gram():
    """Rows of one noiseless plane have centred rank 6: a refit at k = 10
    counts 6 from K, as a fit of copied rows does, and keeps the Gram path;
    the rounding eigenvalues below the rows' tolerance are not counted."""
    X, plane = _wide_union(np.random.default_rng(3), 90, 300, 3.0, noise=0.0)
    fm = FeatureMatrix(X)
    fit_pca(fm, 18)
    rows = np.flatnonzero(plane == 0)
    sub = fit_pca(_Rows(fm, rows), 10)
    assert sub._gram is not None
    assert sub.rank == fit_pca(X[rows].copy(), 10).rank == 6


def test_wide_refit_and_scoring_copy_no_rows():
    """A refit of most rows of a wide domain whose first fit is kept, and
    the scoring of every row against it, run from the Gram: together they
    allocate less than a quarter of the rows they fit, where a copy of the
    rows would take all of it.  The basis and its temporaries, about four
    d x k arrays, take most of that."""
    rng = np.random.default_rng(7)
    X, _ = _wide_union(rng, 150, 6000, 3.0, offset=0.1)
    fm = FeatureMatrix(X)
    fit_pca(fm, 6)
    rows = np.flatnonzero(rng.random(150) < 0.8)
    tracemalloc.start()
    try:
        sub = fit_pca(_Rows(fm, rows), 6)
        reconstruction_errors(_Rows(fm, np.arange(150)), sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub._gram is not None
    assert peak < X[rows].nbytes / 4


@pytest.mark.parametrize("width", [1, 7, 64, 300])
def test_wide_gram_is_formed_in_column_blocks(rng, monkeypatch, width):
    """A wide Gram formed from blocks of 7 and 64 columns (the last one
    short), or of 2 where room for 1 is given, has the mean and scale of a
    whole centred copy bit for bit, and its entries within the forming
    bound gamma_d trace(G); in one block of all 300 columns it is the whole
    copy's product bit for bit.  The largest centred magnitude is negative."""
    n, d = 40, 300
    X = rng.normal(size=(n, d)) * 3.0 + 0.5
    X[3, 5] = -40.0
    e = subspace._scale_exponent(X)
    centred = X * 2.0**-e
    mean = centred.mean(axis=0)
    centred -= mean
    f = subspace._scale_exponent(centred)
    centred *= 2.0**-f
    whole = centred @ centred.T
    monkeypatch.setattr(subspace, "_GRAM_BLOCK_BYTES", 8 * n * width)
    got_mean, got_f, gram = subspace._wide_gram(X, e)
    assert np.array_equal(got_mean, mean) and got_f == f
    if width >= d:
        assert np.array_equal(gram, whole)
    else:
        bound = d * np.finfo(np.float64).eps * np.trace(whole)
        assert 0.0 < np.abs(gram - whole).max() <= bound


def test_wide_first_fit_copies_no_rows(monkeypatch):
    """The first fit of a wide domain forms its Gram from column blocks of
    the centred data: with 512 kB blocks it allocates less than a quarter of
    the domain, where a centred copy would take all of it.  Forming the Gram
    holds one block at a time: with 1 MiB blocks, its peak stays below one
    and a half blocks, the N x N sums included."""
    X, _ = _wide_union(np.random.default_rng(11), 150, 6000, 3.0, offset=0.1)
    monkeypatch.setattr(subspace, "_GRAM_BLOCK_BYTES", 1 << 19)
    fm = FeatureMatrix(X)
    tracemalloc.start()
    try:
        sub = fit_pca(fm, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub._gram is not None
    assert peak < X.nbytes / 4

    monkeypatch.setattr(subspace, "_GRAM_BLOCK_BYTES", 1 << 20)
    e = subspace._scale_exponent(X)
    tracemalloc.start()
    try:
        subspace._wide_gram(X, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)
