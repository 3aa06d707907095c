"""Nearest-neighbour classification and accuracy scoring."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import msa.classify
from msa import AdaptationConfig, adapt
from msa.classify import evaluate_accuracy, nn_classify
from msa.exceptions import ConfigError, DegenerateDataError, DimensionMismatchError
from msa.subspace import FeatureMatrix
from msa.synthetic import planted_benchmark


def _nearest(train, test):
    """nn_classify's nearest training index per test row (labels = indices)."""
    train = np.asarray(train, dtype=float)
    labels = np.arange(train.shape[0])
    return nn_classify(FeatureMatrix(train, labels), FeatureMatrix(test)).predictions


def _cdist_nearest(train, test):
    return cdist(np.asarray(test, float), np.asarray(train, float), "sqeuclidean").argmin(axis=1)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Count the test rows nn_classify hands to cdist."""
    rows = []

    def counting(a, b, *args, **kwargs):
        rows.append(a.shape[0])
        return cdist(a, b, *args, **kwargs)

    monkeypatch.setattr(msa.classify, "cdist", counting)
    return rows


@pytest.fixture
def block_rows(monkeypatch):
    """Record the test rows of each block whose product nn_classify forms."""
    rows = []
    matmul = np.matmul

    def counting(x, y, *args, **kwargs):
        rows.append(x.shape[0])
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(msa.classify.np, "matmul", counting)
    return rows


@pytest.fixture
def screens(monkeypatch):
    """Record the dtype and test rows of each block product nn_classify
    forms: float32 for stage 1, float64 for stage 2."""
    calls = []
    matmul = np.matmul

    def counting(x, y, *args, **kwargs):
        calls.append((x.dtype.name, x.shape[0]))
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(msa.classify.np, "matmul", counting)
    return calls


# _MAX_FLOAT32_WIDTH values that force stage 1 off, and on at every width.
FLOAT64_ONLY, FLOAT32_FIRST = 0, np.iinfo(np.intp).max


def _edge_rows(d, half_gap):
    """Two rows on the first axis, at 0.5 and at -(0.5 + 2 ``half_gap``):
    halved, their squared norms differ by about ``half_gap``, and against the
    origin S = 1/4."""
    rows = np.zeros((2, d))
    rows[:, 0] = [0.5, -(0.5 + 2 * half_gap)]
    return rows


def _use_blocks(patch, n_train, height):
    """Make nn_classify take blocks of ``height`` test rows whenever d <
    height, however small G is."""
    patch.setattr(msa.classify, "_BLOCK_BYTES", 8 * n_train * height)
    patch.setattr(msa.classify, "_MAX_WHOLE_BYTES", 0)


class TestNnClassify:
    def test_matches_brute_force(self, rng):
        """Twenty random instances against a double-loop reference."""
        for _ in range(20):
            n_train = int(rng.integers(1, 40))
            n_test = int(rng.integers(1, 30))
            d = int(rng.integers(1, 8))
            train = rng.normal(size=(n_train, d))
            labels = rng.integers(0, 4, size=n_train)
            test = rng.normal(size=(n_test, d))
            result = nn_classify(
                FeatureMatrix(train, labels), FeatureMatrix(test)
            )
            for i in range(n_test):
                dists = [float(np.sum((test[i] - train[j]) ** 2)) for j in range(n_train)]
                expected = labels[int(np.argmin(dists))]
                assert result.predictions[i] == expected

    def test_exact_match_wins(self):
        train = FeatureMatrix(np.array([[0.0, 0.0], [5.0, 5.0]]), [1, 2])
        test = FeatureMatrix(np.array([[5.0, 5.0]]))
        assert nn_classify(train, test).predictions[0] == 2

    def test_tie_breaks_to_lowest_train_index(self):
        train = FeatureMatrix(
            np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]), [7, 3, 9]
        )
        test = FeatureMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        result = nn_classify(train, test)
        # origin is equidistant from rows 0 and 1; row 0 wins
        assert result.predictions[0] == 7
        # rows 0 and 2 coincide; row 0 wins
        assert result.predictions[1] == 7

    def test_scale_equivariance(self, rng):
        train = rng.normal(size=(25, 4))
        labels = rng.integers(0, 3, size=25)
        test = rng.normal(size=(10, 4))
        a = nn_classify(FeatureMatrix(train, labels), FeatureMatrix(test))
        b = nn_classify(FeatureMatrix(train * 10.0, labels), FeatureMatrix(test * 10.0))
        assert np.array_equal(a.predictions, b.predictions)

    def test_test_labels_do_not_change_predictions(self):
        train = FeatureMatrix(np.array([[0.0], [10.0]]), [0, 1])
        rows = np.array([[1.0], [2.0], [9.0], [8.0]])
        labelled = nn_classify(train, FeatureMatrix(rows, [0, 1, 1, 1]))
        unlabelled = nn_classify(train, FeatureMatrix(rows))
        assert np.array_equal(labelled.predictions, [0, 0, 1, 1])
        assert np.array_equal(unlabelled.predictions, labelled.predictions)

    def test_unlabeled_train_rejected(self, rng):
        with pytest.raises(ConfigError):
            nn_classify(
                FeatureMatrix(rng.normal(size=(5, 2))),
                FeatureMatrix(rng.normal(size=(3, 2))),
            )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            nn_classify(
                FeatureMatrix(rng.normal(size=(5, 2)), [0] * 5),
                FeatureMatrix(rng.normal(size=(3, 4))),
            )

    def test_predictions_read_only(self, rng):
        result = nn_classify(
            FeatureMatrix(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0]),
            FeatureMatrix(rng.normal(size=(3, 2))),
        )
        with pytest.raises(ValueError):
            result.predictions[0] = 9


class TestExactness:
    """nn_classify returns cdist's argmin exactly, lowest index on ties."""

    def test_duplicate_rows_go_to_lowest_index(self, rng, fallback_rows):
        base = rng.normal(size=(15, 6))
        train = np.vstack([base, base, base])  # every row three times
        test = np.vstack([base, rng.normal(size=(10, 6))])
        nearest = _nearest(train, test)
        assert np.all(nearest < 15)
        assert np.array_equal(nearest[:15], np.arange(15))
        assert np.array_equal(nearest, _cdist_nearest(train, test))
        # Every row is an exact tie, so every row fell back.
        assert sum(fallback_rows) == test.shape[0]

    def test_near_ties_fall_back(self, rng, fallback_rows):
        """Candidates closer than the rounding bound are ranked by cdist.

        A large common offset makes the GEMM form cancel: its entries are
        about 1e16, so their rounding error exceeds the distances, which are
        about 1.  Only the fallback can rank these candidates.
        """
        offset = 1e8
        train = offset + rng.normal(size=(40, 4))
        test = offset + rng.normal(size=(30, 4))
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert sum(fallback_rows) == 30
        # Two candidates one ulp apart: a genuine near tie at unit scale.
        fallback_rows.clear()
        x = rng.normal(size=5)
        train = np.vstack([np.nextafter(x, np.inf), x, x + 1.0])
        test = x[None, :] + 1e-3
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert fallback_rows == [1]

    def test_settled_rows_skip_cdist(self, rng, fallback_rows):
        train = rng.normal(size=(50, 8))
        test = rng.normal(size=(40, 8))
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert fallback_rows == []

    def test_single_training_sample(self, rng, fallback_rows):
        train = FeatureMatrix(rng.normal(size=(1, 3)), [4])
        test = FeatureMatrix(rng.normal(size=(6, 3)))
        assert np.array_equal(nn_classify(train, test).predictions, [4] * 6)
        assert fallback_rows == []

    def test_width_one_features(self, rng):
        """1-d features, as when alignment keeps a single shared dimension."""
        train = rng.integers(-4, 5, size=(30, 1)).astype(float)
        test = np.arange(-5.0, 5.5, 0.5)[:, None]  # half-integers tie exactly
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        continuous = rng.normal(size=(200, 1))
        probe = rng.normal(size=(100, 1))
        assert np.array_equal(_nearest(continuous, probe), _cdist_nearest(continuous, probe))

    @pytest.mark.parametrize("scale", [1e-200, 1e150, 1e200])
    def test_extreme_scales_match_cdist(self, rng, scale):
        """Underflow and overflow in the GEMM form fall back, silently."""
        train = rng.normal(size=(20, 3)) * scale
        test = rng.normal(size=(15, 3)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nearest = _nearest(train, test)
        assert np.array_equal(nearest, _cdist_nearest(train, test))

    def test_planted_runs_take_the_fast_path(self, fallback_rows):
        """On planted seed 0 every method classifies without a cdist row."""
        source, target, _ = planted_benchmark(seed=0)
        for config in (
            AdaptationConfig(k=1, method="na"),
            AdaptationConfig(k=2, method="sa"),
            AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3),
        ):
            adapt(source, target, config)
        assert fallback_rows == []


@st.composite
def _tied_problem(draw):
    """Small-integer rows drawn from a few distinct values, so that exact
    distance ties and duplicate training rows are common."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=6,
    ))
    pick = st.integers(0, len(pool) - 1)
    train = [pool[i] for i in draw(st.lists(pick, min_size=1, max_size=25))]
    test = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=15,
    ))
    scale = draw(st.sampled_from([1.0, 0.1, 3.0, 2.0**-40, 1e5]))
    offset = draw(st.sampled_from([0.0, 0.5, 1e4]))
    return np.array(train) * scale + offset, np.array(test) * scale + offset


@settings(max_examples=300, deadline=None)
@given(problem=_tied_problem())
def test_matches_cdist_argmin(problem):
    """Differential against cdist(...).argmin(1) on tie-heavy inputs."""
    train, test = problem
    assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))


@settings(max_examples=300, deadline=None)
@given(problem=_tied_problem())
def test_matches_cdist_argmin_in_blocks(problem):
    """The same differential with blocks of d + 1 test rows, so that most
    problems span several blocks, the last one often partial."""
    train, test = problem
    with pytest.MonkeyPatch.context() as patch:
        _use_blocks(patch, train.shape[0], train.shape[1] + 1)
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))


@pytest.mark.parametrize("float32_width", [FLOAT64_ONLY, FLOAT32_FIRST], ids=["float64", "float32"])
@settings(max_examples=300, deadline=None)
@given(problem=_tied_problem())
def test_matches_cdist_argmin_with_stage_1_forced(float32_width, problem):
    """The differential with stage 1 forced off, and forced on whatever the
    width, whole and in blocks."""
    train, test = problem
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(msa.classify, "_MAX_FLOAT32_WIDTH", float32_width)
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        _use_blocks(patch, train.shape[0], train.shape[1] + 1)
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))


@st.composite
def _wide_problem(draw):
    """Gaussian rows up to 300 wide, some training rows repeated or moved
    by 1e-12, test rows drawn near training rows, all at one scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 300))
    n_train, n_test = draw(st.integers(1, 40)), draw(st.integers(1, 20))
    train = rng.standard_normal((n_train, d))
    twins = rng.integers(0, n_train, size=n_train // 3)
    train = np.vstack([train, train[twins] + draw(st.sampled_from([0.0, 1e-12]))])
    test = train[rng.integers(0, train.shape[0], size=n_test)]
    test = test + draw(st.sampled_from([0.0, 1e-9, 0.1])) * rng.standard_normal(test.shape)
    scale = 2.0 ** draw(st.integers(-60, 60))
    return train * scale, test * scale


@settings(max_examples=150, deadline=None)
@given(problem=_wide_problem())
def test_wide_rows_match_cdist_argmin(problem):
    """Stage 1 forced on for widths up to 300, against cdist."""
    train, test = problem
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(msa.classify, "_MAX_FLOAT32_WIDTH", FLOAT32_FIRST)
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))


class TestFloat32Screen:
    """Stage 1 settles what its bound proves; stage 2 gets every other row."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_bound_counts_the_input_rounding(self, monkeypatch, screens, fallback_rows, d):
        """Scaled S = 1/4 and half-gaps of k 2^-25: the bound 4 (d + 3)
        eps32 S is 4 (d + 3) such steps, without the input-rounding term
        4 (d + 2).  A gap between the two goes to stage 2, which settles it
        (its float64 bound is 1e-15), and a gap just over it settles in
        stage 1.  With stage 1 off, the float64 bound 4 (d + 2) eps S is
        4 (d + 2) steps of 2^-54: a half-gap 2 steps under it reaches
        cdist, and one 2 steps over it settles in float64."""
        both, first = [("float32", 1), ("float64", 1)], [("float32", 1)]
        for k, stages in ((4 * (d + 2) + 2, both), (4 * (d + 3) + 2, first)):
            screens.clear()
            assert np.array_equal(_nearest(_edge_rows(d, k * 2.0**-25), np.zeros((1, d))), [0])
            assert screens == stages
        assert fallback_rows == []
        monkeypatch.setattr(msa.classify, "_MAX_FLOAT32_WIDTH", FLOAT64_ONLY)
        for k, fallen in ((4 * (d + 2) - 2, [1]), (4 * (d + 2) + 2, [])):
            screens.clear()
            fallback_rows.clear()
            assert np.array_equal(_nearest(_edge_rows(d, k * 2.0**-54), np.zeros((1, d))), [0])
            assert screens == [("float64", 1)]
            assert fallback_rows == fallen

    def test_rounded_inputs_that_reverse_the_order(self, screens, fallback_rows):
        """Rounded to float32, the test point and the far row both move to
        round numbers, which puts row 0 ahead; in float64 row 1 is nearer."""
        ulp = 2.0**-23
        train = np.array([[1e-8], [2.0 - 0.2 * ulp]])
        test = np.array([[1.0 + 0.45 * ulp]])
        best, unsettled, _ = msa.classify._screen(test, train, np.float32)
        assert best.tolist() == [0] and unsettled.tolist() == [True]
        screens.clear()
        assert _nearest(train, test).tolist() == [1] == _cdist_nearest(train, test).tolist()
        assert screens == [("float32", 1), ("float64", 1)]
        assert fallback_rows == []

    @pytest.mark.parametrize("exponent", [-200, 200])
    def test_power_of_two_scales_keep_labels_and_stages(self, rng, screens, fallback_rows, exponent):
        """Times 2^j the float32 copies are the same, so each stage sees the
        same rows; near ties and exact lattice ties included."""
        lattice = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
        train = np.vstack([lattice, lattice[:5] + 1e-12, rng.normal(size=(20, 2))])
        test = np.vstack([lattice + [0.5, 0.0], rng.normal(size=(30, 2)), lattice[:5]])
        nearest = _nearest(train, test)
        stages, fallen = list(screens), list(fallback_rows)
        screens.clear()
        fallback_rows.clear()
        scale = 2.0**exponent
        assert np.array_equal(_nearest(train * scale, test * scale), nearest)
        assert np.array_equal(nearest, _cdist_nearest(train, test))
        assert (screens, fallback_rows) == (stages, fallen)
        assert stages[0] == ("float32", test.shape[0]) and len(stages) == 2

    @pytest.mark.parametrize("d", [1, 3])
    def test_rows_that_underflow_in_float32_go_on(self, rng, screens, d):
        """Next to a row of 0.75, rows of about 2^-73 form products below
        float32's smallest normal number, whose rounding can reverse two
        candidates; the tiny32 term leaves all of them to stage 2 (and
        the row of 0.75 ties between training rows that all lie near 0)."""
        train = rng.normal(size=(30, d)) * 2.0**-73
        test = np.vstack([np.full((1, d), 0.75), rng.normal(size=(300, d)) * 2.0**-73])
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert screens == [("float32", 301), ("float64", 301)]

    @pytest.mark.parametrize("scale", [2.0**-410, 2.0**410])
    def test_extreme_scales_skip_stage_1(self, rng, screens, scale):
        """Past 2^+-400, cdist itself may overflow or underflow, which the
        float32 bound does not cover; those inputs start in float64."""
        train = rng.normal(size=(20, 3)) * scale
        test = rng.normal(size=(15, 3)) * scale
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert screens[0][0] == "float64"

    def test_width_rule(self, rng, screens):
        """Rows of up to 1024 numbers start in float32, wider ones (DeCAF's
        4096 among them) in float64."""
        width = msa.classify._MAX_FLOAT32_WIDTH
        assert width == 1024
        for d, first in ((width, "float32"), (width + 1, "float64")):
            screens.clear()
            train = rng.normal(size=(6, d))
            _nearest(train, train[::-1] + 0.01)
            assert screens[0] == (first, 6)

    def test_blocks_by_float32_bytes_while_g_exceeds_the_float64_line(self, rng, screens):
        """A 2000 x 2400 G at d = 20 is 19.2 MB in float32, under the 32 MiB
        line, but 38.4 MB in float64, so it is blocked: 218 rows, 2 MiB of
        float32 over 2400 training rows.  Stage 2 then takes the few rows
        left unsettled whole."""
        train = rng.normal(size=(2400, 20))
        test = rng.normal(size=(2000, 20))
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert screens[:10] == [("float32", 218)] * 9 + [("float32", 38)]
        left = screens[10:]
        assert len(left) <= 1 and all(dtype == "float64" and rows < 100 for dtype, rows in left)

    def test_holds_one_float32_block_and_the_two_copies(self, rng):
        """Peak traced memory of that call: the float32 copies of both
        inputs (352 kB), one 2 MiB block, and vectors of n_test or n_train
        entries (113 kB with numpy 2.4).  A scaled float64 copy of either
        input (320 or 384 kB) held beside the block would overrun it.

        A labelled test set adds only two vectors of n_train entries to
        that blocked G, which records nothing.  Formed whole (1123 x 958 at
        d = 20, 4.3 MB in float32), G is also screened by columns for the
        swapped call, through one buffer of 466 columns (2 MiB over 1123
        rows): that adds one block and vectors of n_train entries (46 kB
        with numpy 2.4) to the call's peak."""
        def peak(train, test):
            nn_classify(train, test)  # warm up
            train._reverse_screens.clear()
            tracemalloc.start()
            try:
                nn_classify(train, test)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        train = FeatureMatrix(rng.normal(size=(2400, 20)), np.arange(2400))
        rows = rng.normal(size=(2000, 20))
        unlabelled = peak(train, FeatureMatrix(rows))
        copies = 4 * (2000 + 2400) * 20
        block = 4 * 218 * 2400
        assert block < unlabelled <= copies + block + (256 << 10)
        test = FeatureMatrix(rows, np.arange(2000))  # kept, so a record would stay
        assert peak(train, test) - unlabelled <= 32 << 10
        assert not train._reverse_screens

        train = FeatureMatrix(rng.normal(size=(958, 20)), np.arange(958))
        rows = rng.normal(size=(1123, 20))
        unlabelled = peak(train, FeatureMatrix(rows))
        test = FeatureMatrix(rows, np.arange(1123))
        added = peak(train, test) - unlabelled
        assert test in train._reverse_screens
        assert 4 * 1123 * 466 - (64 << 10) <= added <= msa.classify._BLOCK_BYTES + (64 << 10)


class TestBlocks:
    """Blocking the test rows changes neither the labels nor the fallback.

    These tests count the float64 screen's blocks, so stage 1 is off;
    TestFloat32Screen counts its blocks."""

    @pytest.fixture(autouse=True)
    def _float64_only(self, monkeypatch):
        monkeypatch.setattr(msa.classify, "_MAX_FLOAT32_WIDTH", FLOAT64_ONLY)

    def test_ties_straddling_block_edges_go_to_lowest_index(
        self, rng, monkeypatch, fallback_rows, block_rows
    ):
        base = rng.normal(size=(5, 2))
        train = np.vstack([base, base, base])  # every row three times
        test = np.vstack([base, base[::-1], [[0.0, 0.0]]])  # 11 rows
        _use_blocks(monkeypatch, 15, 4)
        nearest = _nearest(train, test)
        assert block_rows == [4, 4, 3]
        assert np.array_equal(nearest[:10], np.r_[np.arange(5), np.arange(5)[::-1]])
        assert np.array_equal(nearest, _cdist_nearest(train, test))
        # Every row is an exact tie; all reach one cdist call.
        assert fallback_rows == [11]

    def test_equidistant_rows_in_every_block(self, monkeypatch, fallback_rows, block_rows):
        """Half-integer points tie exactly between two lattice rows."""
        train = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
        ties = np.array([[i + 0.5, j] for i in range(3) for j in range(4)])
        test = np.vstack([ties[:4], [[0.2, 0.1]], ties[4:], [[2.1, 2.8]]])
        _use_blocks(monkeypatch, 16, 3)
        nearest = _nearest(train, test)
        assert block_rows == [3, 3, 3, 3, 2]
        assert np.array_equal(nearest, _cdist_nearest(train, test))
        # The lower lattice row of each tie, i.e. the one at (i, j).
        assert np.array_equal(nearest[:4], [0, 1, 2, 3])
        assert fallback_rows == [len(ties)]

    def test_near_ties_from_every_block_fall_back(self, rng, monkeypatch, fallback_rows, block_rows):
        offset = 1e8
        train = offset + rng.normal(size=(40, 4))
        test = offset + rng.normal(size=(30, 4))
        _use_blocks(monkeypatch, 40, 7)
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert block_rows == [7, 7, 7, 7, 2]
        assert sum(fallback_rows) == 30

    def test_each_row_keeps_its_own_bound(self, rng, monkeypatch, fallback_rows, block_rows):
        """A far component orthogonal to the training rows widens a row's
        bound past every gap, so only the middle block's rows fall back."""
        train = np.hstack([rng.normal(size=(30, 3)), np.zeros((30, 1))])
        near = np.hstack([rng.normal(size=(8, 3)), np.zeros((8, 1))])
        far = near + [0.0, 0.0, 0.0, 1e8]
        test = np.vstack([near, far, near])
        _use_blocks(monkeypatch, 30, 8)
        nearest = _nearest(train, test)
        assert block_rows == [8, 8, 8]
        assert np.array_equal(nearest, _cdist_nearest(train, test))
        assert fallback_rows == [8]

    def test_settled_rows_skip_cdist(self, rng, monkeypatch, fallback_rows, block_rows):
        train = rng.normal(size=(50, 8))
        test = rng.normal(size=(40, 8))
        _use_blocks(monkeypatch, 50, 9)
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert block_rows == [9, 9, 9, 9, 4]
        assert fallback_rows == []

    @pytest.mark.parametrize("d, blocks", [(2, [3] * 6 + [2]), (3, [20]), (6, [20])])
    def test_width_at_or_above_height_is_one_block(self, rng, monkeypatch, block_rows, d, blocks):
        """Blocks of h = 3 rows are used only for d < 3; the labels agree."""
        train = rng.integers(-2, 3, size=(30, d)).astype(float)
        test = rng.integers(-2, 3, size=(20, d)) + rng.choice([0.0, 0.5], size=(20, d))
        whole = _nearest(train, test)
        assert block_rows == [20]
        block_rows.clear()
        _use_blocks(monkeypatch, 30, 3)
        assert np.array_equal(_nearest(train, test), whole)
        assert block_rows == blocks
        assert np.array_equal(whole, _cdist_nearest(train, test))

    def test_only_a_large_g_is_blocked(self, rng, monkeypatch, block_rows):
        """G of 20 x 30 x 8 = 4800 bytes: whole at a 4800-byte limit, in
        blocks of 3 rows below it."""
        train = rng.normal(size=(30, 2))
        test = rng.normal(size=(20, 2))
        _use_blocks(monkeypatch, 30, 3)
        monkeypatch.setattr(msa.classify, "_MAX_WHOLE_BYTES", 4800)
        whole = _nearest(train, test)
        assert block_rows == [20]
        block_rows.clear()
        monkeypatch.setattr(msa.classify, "_MAX_WHOLE_BYTES", 4799)
        assert np.array_equal(_nearest(train, test), whole)
        assert block_rows == [3] * 6 + [2]
        assert np.array_equal(whole, _cdist_nearest(train, test))

    def test_default_limits_block_a_tall_narrow_problem(self, rng, block_rows):
        """A 2000 x 2400 G (38.4 MB) at d = 20 goes in blocks of 109 rows,
        2 MiB over 2400 training rows; 1123 x 958 (8.6 MB) stays whole."""
        train = rng.normal(size=(2400, 20))
        test = rng.normal(size=(2000, 20))
        assert np.array_equal(_nearest(train, test), _cdist_nearest(train, test))
        assert block_rows == [109] * 18 + [38]
        block_rows.clear()
        assert np.array_equal(
            _nearest(train[:958], test[:1123]), _cdist_nearest(train[:958], test[:1123])
        )
        assert block_rows == [1123]


def _labelled(train, test):
    """Both sets as FeatureMatrix objects labelled by row index, so that
    either can train the other."""
    return (
        FeatureMatrix(train, np.arange(len(train))),
        FeatureMatrix(test, np.arange(len(test))),
    )


@pytest.mark.parametrize("float32_width", [FLOAT64_ONLY, FLOAT32_FIRST], ids=["float64", "float32"])
@pytest.mark.parametrize("block_columns", [None, 1, 3], ids=["whole", "by-1", "by-3"])
@settings(max_examples=100, deadline=None)
@given(problem=_tied_problem())
def test_both_call_orders_match_cdist_argmin(float32_width, block_columns, problem):
    """A labelled test set records the swapped call's first stage, which
    that call then pops; both calls equal cdist's argmin on tie-heavy
    inputs.  The column screen runs whole, or in blocks of 1 or 3 columns
    (2 or 6 in float32), the last one often partial."""
    train, test = problem
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(msa.classify, "_MAX_FLOAT32_WIDTH", float32_width)
        if block_columns:
            patch.setattr(msa.classify, "_BLOCK_BYTES", 8 * len(test) * block_columns)
        a, b = _labelled(train, test)
        forward = nn_classify(a, b).predictions
        assert b in a._reverse_screens
        reverse = nn_classify(b, a).predictions
        assert not a._reverse_screens and not b._reverse_screens
    assert np.array_equal(forward, _cdist_nearest(train, test))
    assert np.array_equal(reverse, _cdist_nearest(test, train))


class TestSharedProduct:
    """The call with the roles swapped reuses the first stage's whole G."""

    @pytest.mark.parametrize("d", [6, 1100], ids=["float32", "float64"])
    def test_ties_across_the_two_sets(self, rng, monkeypatch, fallback_rows, d):
        """Rows in both sets, twice in each, and midpoints that tie exactly
        between two rows of the other set, at the default widths of both
        stages; the column screen takes blocks of 2 columns (4 in float32),
        so ties fall inside and across block edges."""
        base = rng.integers(-2, 3, size=(5, d)).astype(float)
        train = np.vstack([base, base, rng.normal(size=(4, d))])
        test = np.vstack([base[::-1], base[:2], (base[:2] + base[2:4]) / 2, rng.normal(size=(3, d))])
        monkeypatch.setattr(msa.classify, "_BLOCK_BYTES", 8 * len(test) * 2)
        a, b = _labelled(train, test)
        forward = nn_classify(a, b).predictions
        reverse = nn_classify(b, a).predictions
        assert np.array_equal(forward, _cdist_nearest(train, test))
        assert np.array_equal(reverse, _cdist_nearest(test, train))
        assert np.array_equal(forward[:7], np.r_[np.arange(5)[::-1], 0, 1])
        assert np.array_equal(reverse[:10], np.r_[np.arange(5)[::-1], np.arange(5)[::-1]])
        # The tied rows of both calls reached cdist: all that the forward
        # call ranks against the doubled base, and the two base rows that
        # the test set holds twice, in each copy.
        assert fallback_rows[0] >= 7 and fallback_rows[1] >= 4

    @pytest.mark.parametrize("d", [300, 1100], ids=["float32", "float64"])
    def test_swapped_call_forms_no_first_stage_product(self, rng, screens, fallback_rows, d):
        """The swapped call forms no first-stage product.  In float64,
        where Gaussian rows all settle, it forms none at all; in float32 it
        forms float64 products for its few leftovers only."""
        train, test = rng.normal(size=(40, d)), rng.normal(size=(30, d))
        a, b = _labelled(train, test)
        assert np.array_equal(nn_classify(a, b).predictions, _cdist_nearest(train, test))
        assert screens[0] == ("float32" if d <= 1024 else "float64", 30)
        screens.clear()
        assert np.array_equal(nn_classify(b, a).predictions, _cdist_nearest(test, train))
        assert all(dtype == "float64" and rows < 10 for dtype, rows in screens)
        assert fallback_rows == []
        if d > 1024:
            assert screens == []

    @pytest.mark.parametrize("d", [1, 3])
    def test_column_bound_is_the_swapped_calls_bound(self, monkeypatch, screens, fallback_rows, d):
        """TestFloat32Screen's bound test, seen from the other side: the
        two rows are the test set and the origin trains.  The column screen
        settles the swapped call's row past 4 (d + 3) steps of 2^-25, as
        that call's own screen would, and leaves it to float64 below.  With
        stage 1 off it settles the row past 4 (d + 2) steps of 2^-54 and
        leaves it to cdist below, the swapped call forming no product."""
        for k, stages in ((4 * (d + 2) + 2, [("float64", 1)]), (4 * (d + 3) + 2, [])):
            a, b = _labelled(np.zeros((1, d)), _edge_rows(d, k * 2.0**-25))
            nn_classify(a, b)
            screens.clear()
            assert np.array_equal(nn_classify(b, a).predictions, [0])
            assert screens == stages
        assert fallback_rows == []
        monkeypatch.setattr(msa.classify, "_MAX_FLOAT32_WIDTH", FLOAT64_ONLY)
        for k, fallen in ((4 * (d + 2) - 2, [1]), (4 * (d + 2) + 2, [])):
            a, b = _labelled(np.zeros((1, d)), _edge_rows(d, k * 2.0**-54))
            screens.clear()
            nn_classify(a, b)
            assert screens == [("float64", 2)] and b in a._reverse_screens
            screens.clear()
            fallback_rows.clear()
            assert np.array_equal(nn_classify(b, a).predictions, [0])
            assert screens == [] and not a._reverse_screens
            assert fallback_rows == fallen

    def test_a_record_is_used_once(self, rng, screens):
        """The swapped call pops the record; called again, it forms its own
        product and records for the first direction in turn."""
        a, b = _labelled(rng.normal(size=(40, 1100)), rng.normal(size=(30, 1100)))
        nn_classify(a, b)
        nn_classify(b, a)
        screens.clear()
        nn_classify(b, a)
        assert screens == [("float64", 40)]
        assert a in b._reverse_screens and not a._reverse_screens
        nn_classify(a, b)
        assert screens == [("float64", 40)]
        assert not b._reverse_screens

    def test_nothing_recorded_without_a_whole_first_stage_or_labels(self, rng, monkeypatch, screens):
        """An unlabelled test set cannot train the swapped call; a blocked
        G is never whole; past 2^+-400, stage 1 forms no product and
        stage 2 is not the first."""
        # Each test set is kept alive, so that a record would stay.
        train = FeatureMatrix(rng.normal(size=(30, 2)), np.arange(30))
        rows = rng.normal(size=(20, 2))
        unlabelled, labelled = FeatureMatrix(rows), FeatureMatrix(rows, np.arange(20))
        nn_classify(train, unlabelled)
        assert screens == [("float32", 20)]
        assert not train._reverse_screens
        with monkeypatch.context() as patch:
            _use_blocks(patch, 30, 3)
            nn_classify(train, labelled)
            assert screens[-1] == ("float32", 2)  # the last of 7 blocks
            assert not train._reverse_screens
        nn_classify(train, labelled)  # the control: whole, it records
        assert labelled in train._reverse_screens
        screens.clear()
        scale = 2.0**410
        far = FeatureMatrix(rng.normal(size=(30, 2)) * scale, np.arange(30))
        far_test = FeatureMatrix(rows * scale, np.arange(20))
        nn_classify(far, far_test)
        assert screens[0] == ("float64", 20)
        assert not far._reverse_screens

    def test_a_record_keeps_no_other_matrix_alive(self, rng):
        train, test = _labelled(rng.normal(size=(20, 3)), rng.normal(size=(10, 3)))
        nn_classify(train, test)
        assert len(train._reverse_screens) == 1
        gone = weakref.ref(test)
        del test
        gc.collect()
        assert gone() is None
        assert len(train._reverse_screens) == 0


class TestEvaluateAccuracy:
    def test_perfect(self):
        assert evaluate_accuracy([1, 2, 3], [1, 2, 3]) == pytest.approx(100.0)

    def test_three_quarters(self):
        assert evaluate_accuracy([1, 1, 2, 2], [1, 1, 2, 9]) == pytest.approx(75.0)

    def test_zero(self):
        assert evaluate_accuracy([1], [2]) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate_accuracy([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateDataError):
            evaluate_accuracy([], [])

    def test_integral_float_labels_accepted(self):
        assert evaluate_accuracy([0, 1, 2], [0.0, 1.0, 5.0]) == pytest.approx(200.0 / 3.0)

    @pytest.mark.parametrize(
        "truth",
        [[0.9, 1.2], [0.0, np.nan], [0.0, np.inf], ["0", "1"], [0, None]],
        ids=["fractional", "nan", "inf", "strings", "none"],
    )
    def test_non_integer_labels_rejected(self, truth):
        """A cast would truncate 0.9 and 1.2 to 0 and 1 and score 100."""
        with pytest.raises(DegenerateDataError):
            evaluate_accuracy([0, 1], truth)
        with pytest.raises(DegenerateDataError):
            evaluate_accuracy(truth, [0, 1])
