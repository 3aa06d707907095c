"""End-to-end pipeline behaviour and the benchmark harness."""

import itertools
import json
import logging
from dataclasses import asdict, fields, replace
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from msa import classify, multifit, pipeline
from msa.alignment import build_features
from msa.exceptions import ConfigError, DimensionMismatchError
from msa.grassmann import distance_matrix
from msa.io import save_features_binary, save_features_csv, save_labels
from msa.matching import greedy_match
from msa.multifit import SubspaceCollection, fit_multi
from msa.pipeline import (
    GRID_CAVEAT,
    AdaptationConfig,
    adapt,
    default_grid,
    format_table,
    load_domain,
    report_to_json,
    run_benchmark,
    zscore,
)
from msa.subspace import FeatureMatrix, Subspace, fit_pca
from msa.synthetic import planted_benchmark, random_orthogonal


# NA, SA and two proposed configs, run on planted seeds 0-9 by the tests of
# what a change to the inputs may and may not move.
PLANTED_CONFIGS = [
    AdaptationConfig(k=2, method="na"),
    AdaptationConfig(k=2, method="sa"),
    AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3),
    AdaptationConfig(k=2, tau_s=0.2, tau_t=0.5),
]
PLANTED_IDS = ["na", "sa", "tau-0.3", "tau-0.2-0.5"]

# The proposed method's predictions depend on the coordinate frames of its
# target subspaces; the tests marked with this pass once that is mended.
FRAME_FAULT = pytest.mark.xfail(strict=True, reason=(
    "build_features writes each matched pair's rows in its own target "
    "frame, and 1-NN compares rows of different frames (ROADMAP item 1)"
))


class TestAdaptationConfig:
    def test_method_case_insensitive(self):
        assert AdaptationConfig(k=2, method="SA").method == "sa"

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            AdaptationConfig(k=2, method="magic")

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            AdaptationConfig(k=0)
        for k, max_subspaces in ((True, 16), (2, 2.5), (2, 0)):
            with pytest.raises(ConfigError, match="must be a positive integer"):
                AdaptationConfig(k=k, max_subspaces=max_subspaces)

    def test_bad_tau(self):
        with pytest.raises(ConfigError, match="tau_s"):
            AdaptationConfig(k=2, tau_s=0.0)
        with pytest.raises(ConfigError, match="tau_t"):
            AdaptationConfig(k=2, tau_t=1.2)
        # True would run as tau = 1.0, the loosest threshold.
        with pytest.raises(ConfigError, match="tau_s"):
            AdaptationConfig(k=2, tau_s=True)
        with pytest.raises(ConfigError, match="tau_t"):
            AdaptationConfig(k=2, tau_t=True)
        # Anything but a real number is named, not a bare TypeError.
        with pytest.raises(ConfigError, match="tau_s"):
            AdaptationConfig(k=2, tau_s=None)
        with pytest.raises(ConfigError, match="tau_s"):
            AdaptationConfig(k=2, tau_s="0.3")

    def test_sa_stores_one_subspace_settings(self):
        config = AdaptationConfig(k=2, tau_s=0.3, tau_t=0.5, max_subspaces=16, method="sa")
        assert (config.tau_s, config.tau_t, config.max_subspaces) == (1.0, 1.0, 1)
        # The values given are still validated first.
        with pytest.raises(ConfigError, match="tau_s"):
            AdaptationConfig(k=2, tau_s=0.0, method="sa")
        with pytest.raises(ConfigError, match="max_subspaces"):
            AdaptationConfig(k=2, max_subspaces=0, method="sa")

    def test_na_stores_no_fit_settings(self):
        """NA fits nothing, so it records no thresholds and no cap."""
        config = AdaptationConfig(k=1, method="na")
        assert (config.tau_s, config.tau_t, config.max_subspaces) == (None, None, None)
        assert AdaptationConfig(k=1, tau_s=0.5, max_subspaces=3, method="NA") == config
        # The values given are still validated first.
        with pytest.raises(ConfigError, match="tau_t"):
            AdaptationConfig(k=1, tau_t=0.0, method="na")
        with pytest.raises(ConfigError, match="max_subspaces"):
            AdaptationConfig(k=1, max_subspaces=0, method="na")

    def test_na_reads_back_its_stored_none(self):
        """The None NA stores is accepted again, so its record reads back."""
        config = AdaptationConfig(k=1, tau_s=None, tau_t=None, method="na", max_subspaces=None)
        assert config == AdaptationConfig(**asdict(config))
        # Only NA may leave the fit settings out.
        for method in ("proposed", "sa"):
            with pytest.raises(ConfigError, match="max_subspaces"):
                AdaptationConfig(k=1, method=method, max_subspaces=None)


class TestAdapt:
    def test_identical_domains_are_trivial(self, rng):
        data = rng.normal(size=(60, 5))
        labels = rng.integers(0, 3, size=60)
        fm = FeatureMatrix(data, labels)
        result = adapt(fm, fm, AdaptationConfig(k=2, tau_s=0.5, tau_t=0.5))
        assert result.report.accuracy == pytest.approx(100.0)

    def test_deterministic_given_inputs(self):
        src, tgt, _ = planted_benchmark(seed=1)
        cfg = AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3)
        a = adapt(src, tgt, cfg)
        b = adapt(src, tgt, cfg)
        assert np.array_equal(a.prediction.predictions, b.prediction.predictions)
        assert np.array_equal(a.source_features, b.source_features)
        assert np.array_equal(a.target_features, b.target_features)
        assert a.report.accuracy == b.report.accuracy
        assert list(a.report.stage_seconds) == list(b.report.stage_seconds)

    def test_stage_seconds_time_each_stage_in_order(self):
        src, tgt, _ = planted_benchmark(seed=0)
        report = adapt(src, tgt, AdaptationConfig(k=2)).report
        assert tuple(report.stage_seconds) == (
            "fit_source", "fit_target", "distance_matrix", "greedy_match",
            "align_project", "classify",
        )
        assert all(s >= 0.0 for s in report.stage_seconds.values())
        assert sum(report.stage_seconds.values()) <= report.wall_time

    def test_one_overlap_per_call(self):
        """Distances and transforms share one S^T T: build_features gets the
        very overlap distance_matrix formed, and nothing forms another."""
        src, tgt, _ = planted_benchmark(seed=0)
        original, formed = pipeline.distance_matrix, []

        def distances(source, target):
            formed.append(original(source, target))
            return formed[-1]

        with mock.patch.object(pipeline, "distance_matrix", distances), \
                mock.patch.object(pipeline, "build_features", wraps=pipeline.build_features) as built:
            adapt(src, tgt, AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3))
        assert len(formed) == 1 and built.call_count == 1
        assert built.call_args.args[3] is formed[0][1]

    def test_na_path_skips_all_fitting(self):
        src, tgt, _ = planted_benchmark(seed=0)
        result = adapt(src, tgt, AdaptationConfig(k=2, method="na"))
        assert tuple(result.report.stage_seconds) == ("classify",)
        assert result.report.num_src_subspaces == 0
        assert result.report.num_tgt_subspaces == 0
        assert np.array_equal(result.source_features, src.data)
        assert np.array_equal(result.target_features, tgt.data)

    def test_sa_equals_proposed_with_tau_one(self):
        src, tgt, _ = planted_benchmark(seed=2)
        sa = adapt(src, tgt, AdaptationConfig(k=2, method="sa"))
        forced = adapt(
            src, tgt, AdaptationConfig(k=2, tau_s=1.0, tau_t=1.0, method="proposed")
        )
        assert np.array_equal(sa.prediction.predictions, forced.prediction.predictions)
        assert np.array_equal(sa.source_features, forced.source_features)
        assert np.array_equal(sa.target_features, forced.target_features)
        assert sa.report.num_src_subspaces == 1
        assert sa.report.num_tgt_subspaces == 1

    def test_sa_fits_one_subspace_per_domain(self):
        """Two samples orthogonal to the top direction do not split SA's fit."""
        X = np.array([[3, 0], [-3, 0], [2, 0], [-2, 0], [0, 1], [0, -1]], dtype=float)
        fm = FeatureMatrix(X, [0, 1, 0, 1, 0, 1])
        report = adapt(fm, fm, AdaptationConfig(k=1, method="sa")).report
        assert (report.num_src_subspaces, report.num_tgt_subspaces) == (1, 1)
        config = report.to_dict()["config"]
        assert (config["tau_s"], config["tau_t"], config["max_subspaces"]) == (1.0, 1.0, 1)

    @pytest.mark.parametrize("config", PLANTED_CONFIGS, ids=PLANTED_IDS)
    def test_target_row_permutation_permutes_predictions(self, config):
        for seed in range(10):
            src, tgt, _ = planted_benchmark(seed=seed)
            perm = np.random.default_rng(seed).permutation(tgt.n_samples)
            shuffled = FeatureMatrix(tgt.data[perm], tgt.labels[perm])
            base = adapt(src, tgt, config)
            moved = adapt(src, shuffled, config)
            assert np.array_equal(moved.prediction.predictions, base.prediction.predictions[perm])
            assert moved.report.accuracy == base.report.accuracy
            assert moved.report.num_tgt_subspaces == base.report.num_tgt_subspaces

    @pytest.mark.parametrize("config", PLANTED_CONFIGS, ids=PLANTED_IDS)
    def test_power_of_two_scale_keeps_predictions(self, config):
        """Both domains times 2^j: a power of two scales without rounding,
        so no step may change a prediction."""
        for seed in range(10):
            src, tgt, _ = planted_benchmark(seed=seed)
            base = adapt(src, tgt, config).prediction.predictions
            for j in (-7, 3, 40):
                scale = 2.0**j
                moved = adapt(
                    FeatureMatrix(src.data * scale, src.labels),
                    FeatureMatrix(tgt.data * scale, tgt.labels),
                    config,
                )
                assert np.array_equal(moved.prediction.predictions, base), (seed, j)

    @pytest.mark.parametrize("config", PLANTED_CONFIGS, ids=PLANTED_IDS)
    def test_source_row_permutation_keeps_predictions(self, config):
        """Planted sources have no exact 1-NN ties, so the order of the
        source rows does not choose a neighbour."""
        for seed in range(10):
            src, tgt, _ = planted_benchmark(seed=seed)
            perm = np.random.default_rng(seed).permutation(src.n_samples)
            shuffled = FeatureMatrix(src.data[perm], src.labels[perm])
            base = adapt(src, tgt, config)
            moved = adapt(shuffled, tgt, config)
            assert np.array_equal(moved.prediction.predictions, base.prediction.predictions), seed

    @pytest.mark.parametrize("config", PLANTED_CONFIGS, ids=PLANTED_IDS)
    def test_class_relabelling_relabels_predictions(self, config):
        """Swapping the two planted classes' labels in both domains swaps
        every prediction: no step reads a label's value."""
        swap = np.array([1, 0])
        for seed in range(10):
            src, tgt, _ = planted_benchmark(seed=seed)
            base = adapt(src, tgt, config)
            moved = adapt(
                FeatureMatrix(src.data, swap[src.labels]),
                FeatureMatrix(tgt.data, swap[tgt.labels]),
                config,
            )
            assert np.array_equal(moved.prediction.predictions, swap[base.prediction.predictions])
            assert moved.report.accuracy == base.report.accuracy, seed

    @pytest.mark.parametrize("config", [
        *PLANTED_CONFIGS[:2],
        *(pytest.param(c, marks=FRAME_FAULT) for c in PLANTED_CONFIGS[2:]),
    ], ids=PLANTED_IDS)
    def test_common_rotation_keeps_predictions(self, config):
        """Both domains times one random orthogonal Q of R^8: a change of
        coordinates, which no prediction may see.  Planted domains have no
        1-NN near tie that the rounding of the rotation could turn, so no
        row is allowed to change.  The proposed method at tau 0.3 changes
        7-38 of 200 predictions on 7 of the 10 seeds; at tau_s 0.2, tau_t
        0.5 it changes 2 on seed 9, the one seed whose target splits in two.
        Those rows' second-nearest source rows lie farther than their nearest
        by 6.4 and 127 times the nearest distance: the frame fault, not a
        near tie."""
        for seed in range(10):
            src, tgt, _ = planted_benchmark(seed=seed)
            q = random_orthogonal(np.random.default_rng(100 + seed), src.n_features)
            base = adapt(src, tgt, config).prediction.predictions
            moved = adapt(
                FeatureMatrix(src.data @ q, src.labels),
                FeatureMatrix(tgt.data @ q, tgt.labels),
                config,
            )
            assert np.array_equal(moved.prediction.predictions, base), seed

    @FRAME_FAULT
    def test_target_sign_flip_keeps_predictions(self):
        """A basis column of a target subspace times -1, with its coordinate
        column: the same subspace and the same samples, so no prediction
        may change.  Each of the four flips changes 1-34 of 200 predictions
        on every planted seed at k 2, tau 0.3."""
        for seed in range(10):
            src, tgt, _ = planted_benchmark(seed=seed)
            src_fit, tgt_fit = fit_multi(src, 2, 0.3), fit_multi(tgt, 2, 0.3)

            def predictions(tgt_fit):
                distances, overlap = distance_matrix(src_fit.subspaces, tgt_fit.subspaces)
                features = build_features(src_fit, tgt_fit, greedy_match(distances), overlap)
                train, test = FeatureMatrix(features[0], src.labels), FeatureMatrix(features[1])
                return classify.nn_classify(train, test).predictions

            base = predictions(tgt_fit)
            for t, sub in enumerate(tgt_fit.subspaces):
                for j in range(sub.rank):
                    flip = np.ones(sub.rank)
                    flip[j] = -1.0
                    subspaces, coords = list(tgt_fit.subspaces), list(tgt_fit.coords)
                    subspaces[t] = Subspace(sub.basis * flip, sub.mean)
                    coords[t] = coords[t] * flip
                    flipped = SubspaceCollection(subspaces, tgt_fit.assignment, coords)
                    assert np.array_equal(predictions(flipped), base), (seed, t, j)

    def test_unlabeled_target_scores_nothing(self):
        src, tgt, _ = planted_benchmark(seed=0)
        bare = FeatureMatrix(tgt.data)
        result = adapt(src, bare, AdaptationConfig(k=2))
        assert result.report.accuracy is None
        assert result.prediction.predictions.shape == (bare.n_samples,)

    def test_unlabeled_source_rejected(self):
        src, tgt, _ = planted_benchmark(seed=0)
        with pytest.raises(ConfigError):
            adapt(FeatureMatrix(src.data), tgt, AdaptationConfig(k=2))

    def test_feature_dim_mismatch_rejected(self, rng):
        src = FeatureMatrix(rng.normal(size=(10, 4)), rng.integers(0, 2, 10))
        tgt = FeatureMatrix(rng.normal(size=(10, 5)))
        with pytest.raises(DimensionMismatchError, match=r"feature dimension \(4 vs 5\)"):
            adapt(src, tgt, AdaptationConfig(k=2))

    def test_stage_errors_name_the_stage(self, rng):
        src = FeatureMatrix(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        tgt = FeatureMatrix(rng.normal(size=(20, 3)))
        with pytest.raises(ConfigError, match="stage 'fit_source'"):
            adapt(src, tgt, AdaptationConfig(k=5))

    def test_fit_cache_reuse_is_transparent(self):
        src, tgt, _ = planted_benchmark(seed=3)
        cfg = AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3)
        cache: dict = {}
        first = adapt(src, tgt, cfg, source_name="s", target_name="t", fit_cache=cache)
        assert cache
        second = adapt(src, tgt, cfg, source_name="s", target_name="t", fit_cache=cache)
        assert np.array_equal(
            first.prediction.predictions, second.prediction.predictions
        )
        assert first.report.accuracy == second.report.accuracy

    def test_fit_cache_tells_data_apart(self):
        """Two pairs under the same default names each score as if uncached."""
        cfg = AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3)
        cache: dict = {}
        for seed in (0, 5):
            src, tgt, _ = planted_benchmark(seed=seed)
            cached = adapt(src, tgt, cfg, fit_cache=cache)
            fresh = adapt(src, tgt, cfg)
            assert cached.report.accuracy == fresh.report.accuracy
            assert np.array_equal(
                cached.prediction.predictions, fresh.prediction.predictions
            )

    def test_fit_cache_honours_max_subspaces(self):
        src, tgt, _ = planted_benchmark(seed=0)
        cache: dict = {}
        wide = adapt(src, tgt, AdaptationConfig(k=2, max_subspaces=16), fit_cache=cache)
        assert wide.report.num_src_subspaces == 2
        capped = adapt(src, tgt, AdaptationConfig(k=2, max_subspaces=1), fit_cache=cache)
        assert capped.report.num_src_subspaces == 1
        assert capped.report.num_tgt_subspaces == 1

    def test_fit_cache_keeps_the_overlap_of_any_one_subspace_fit(self):
        """A pair is kept when either fit is one subspace, also when that
        subspace is a round-1 refit rather than the whole first round: the
        source's three copies of one far row score above tau, the refit
        leaves them a rest with no two distinct rows, and they join it."""
        rng = np.random.default_rng(0)
        plane = np.column_stack([rng.normal(0, 5, 60), rng.normal(0, 1, 60), np.zeros(60)])
        X = np.vstack([plane, np.tile([0.0, 0.0, 4.6], (3, 1))])
        src = FeatureMatrix(X, np.arange(63) % 2)
        rng = np.random.default_rng(1)
        first = np.column_stack([rng.normal(size=40), rng.normal(size=40), np.zeros(40)])
        second = np.column_stack([np.full(40, 3.0), rng.normal(size=40), rng.normal(size=40)])
        tgt = FeatureMatrix(np.vstack([first, second]))
        cache: dict = {}
        adapt(src, tgt, AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3), fit_cache=cache)
        (src_fit,) = (fit for key, fit in cache.items() if len(key) == 4 and key[0] is src)
        assert len(src_fit) == 1
        assert src_fit.subspaces[0] is not multifit._first_round(src, 2)[0]
        kept = [key for key in cache if len(key) == 2]
        assert [tuple(map(len, key)) for key in kept] == [(1, 2)]

    def test_report_to_dict(self):
        src, tgt, _ = planted_benchmark(seed=0)
        report = adapt(src, tgt, AdaptationConfig(k=2)).report
        payload = report.to_dict()
        assert payload["domain_pair"] == ["source", "target"]
        assert payload["config"] == {
            "k": 2, "tau_s": 0.3, "tau_t": 0.3, "method": "proposed", "max_subspaces": 16,
        }
        assert payload["accuracy"] == report.accuracy
        assert list(payload["stage_seconds"])[-1] == "classify"
        assert list(payload) == [
            "domain_pair", "accuracy", "num_src_subspaces", "num_tgt_subspaces",
            "source_fit", "target_fit", "matching", "feature_dim", "config",
            "wall_time", "stage_seconds",
        ]

    def test_subspace_counts_are_read_off_the_fits(self):
        """The counts are not stored beside the fit summaries: each is the
        length of its fit's ranks, 0 without a fit, in to_dict as before."""
        src, tgt, _ = planted_benchmark(seed=0)
        report = adapt(src, tgt, AdaptationConfig(k=2, tau_s=0.05, tau_t=1.0)).report
        assert {"num_src_subspaces", "num_tgt_subspaces"}.isdisjoint(
            f.name for f in fields(report)
        )
        counts = (report.num_src_subspaces, report.num_tgt_subspaces)
        assert counts == (len(report.source_fit.ranks), len(report.target_fit.ranks))
        assert counts[0] > 1 and counts[1] == 1
        payload = report.to_dict()
        assert (payload["num_src_subspaces"], payload["num_tgt_subspaces"]) == counts
        unfitted = replace(report, source_fit=None, target_fit=None)
        assert (unfitted.num_src_subspaces, unfitted.num_tgt_subspaces) == (0, 0)

    def test_numpy_typed_config_reports_as_json(self):
        src, tgt, _ = planted_benchmark(seed=0)
        config = AdaptationConfig(
            k=np.int64(2), tau_s=np.float32(0.3), tau_t=np.float64(0.3),
            max_subspaces=np.int32(16),
        )
        assert [type(v) for v in (config.k, config.tau_s, config.tau_t, config.max_subspaces)] \
            == [int, float, float, int]
        # float32 0.3 is stored as the float it denotes, and runs as before.
        assert config.tau_s == float(np.float32(0.3))
        result = adapt(src, tgt, config)
        payload = json.loads(report_to_json(result.report, result.prediction.predictions))
        assert payload["config"] == asdict(config)
        plain = adapt(src, tgt, AdaptationConfig(k=2, tau_s=float(np.float32(0.3)), tau_t=0.3))
        assert np.array_equal(result.prediction.predictions, plain.prediction.predictions)

    @pytest.mark.parametrize("config", [
        AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3),
        AdaptationConfig(k=2, tau_s=0.05, tau_t=0.5, max_subspaces=3),
        AdaptationConfig(k=1, tau_s=0.02, tau_t=0.02),
        AdaptationConfig(k=2, method="sa"),
    ], ids=["tau-0.3", "tau-0.05-0.5", "k1-tau-0.02", "sa"])
    def test_report_describes_fits_and_matching(self, config):
        """The fit summaries, the matching and the feature width agree with
        the fits and the features, and are plain Python values."""
        src, tgt, _ = planted_benchmark(seed=4)
        result = adapt(src, tgt, config)
        report = result.report
        for summary, data, count in (
            (report.source_fit, src, report.num_src_subspaces),
            (report.target_fit, tgt, report.num_tgt_subspaces),
        ):
            assert sum(summary.sample_counts) == data.n_samples
            assert len(summary.ranks) == len(summary.sample_counts) == count
            assert all(1 <= r <= config.k for r in summary.ranks)
            assert all(type(v) is int for v in (*summary.ranks, *summary.sample_counts))
            assert type(summary.tau_escalations) is int and summary.tau_escalations >= 0
        assert report.feature_dim == result.source_features.shape[1]
        assert report.feature_dim == result.target_features.shape[1]
        pairs = report.matching.pairs
        assert [i for i, _, _ in pairs] == list(range(report.num_src_subspaces))
        assert all(0 <= j < report.num_tgt_subspaces for _, j, _ in pairs)
        assert all(type(dist) is float and dist >= 0.0 for _, _, dist in pairs)
        payload = json.loads(report_to_json(report))
        assert payload["source_fit"]["sample_counts"] == list(report.source_fit.sample_counts)
        assert payload["target_fit"]["ranks"] == list(report.target_fit.ranks)
        assert payload["matching"]["policy"] == report.matching.policy
        assert payload["matching"]["pairs"] == [list(p) for p in pairs]
        assert payload["feature_dim"] == report.feature_dim

    def test_na_report_records_raw_width_and_no_fits(self):
        src, tgt, _ = planted_benchmark(seed=0)
        result = adapt(src, tgt, AdaptationConfig(k=2, method="na"))
        report = result.report
        assert (report.source_fit, report.target_fit, report.matching) == (None, None, None)
        assert report.feature_dim == src.n_features == result.target_features.shape[1]
        payload = report.to_dict()
        assert (payload["source_fit"], payload["target_fit"], payload["matching"]) == (None, None, None)
        assert payload["feature_dim"] == src.n_features


class TestLoadDomain:
    def test_keeps_the_loaded_array(self, tmp_path, rng):
        """The freshly read array becomes the FeatureMatrix's data, uncopied."""
        X = rng.normal(size=(6, 3))
        save_features_binary(tmp_path / "a.bin", X)
        save_labels(tmp_path / "a.labels", np.arange(6))
        loaded = []
        real = pipeline.io.load_features

        def spy(path):
            loaded.append(real(path))
            return loaded[-1]

        with mock.patch.object(pipeline.io, "load_features", spy):
            fm = load_domain(tmp_path / "a.bin", tmp_path / "a.labels")
        assert fm.data is loaded[0]
        assert np.array_equal(fm.data, X)
        assert not fm.data.flags.writeable
        assert np.array_equal(fm.labels, np.arange(6))

    def test_normalized_data_is_read_only(self, tmp_path, rng):
        X = rng.normal(size=(6, 3)) * 4.0 + 1.0
        save_features_csv(tmp_path / "a.csv", X)
        fm = load_domain(tmp_path / "a.csv", normalize=True)
        assert np.allclose(fm.data, zscore(X))
        assert not fm.data.flags.writeable


class TestZscore:
    def test_standardizes_columns(self, rng):
        X = rng.normal(size=(200, 4)) * [1.0, 5.0, 0.1, 9.0] + [3.0, -2.0, 0.0, 7.0]
        Z = zscore(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_centred_not_scaled(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        Z = zscore(X)
        assert np.allclose(Z[:, 1], 0.0)
        assert np.isfinite(Z).all()

    def test_equals_the_two_step_form_bitwise(self, rng):
        """Dividing the centred copy in place gives (arr - mean) / std."""
        X = rng.normal(size=(300, 7)) * [1.0, 5.0, 0.1, 9.0, 1e-3, 2.0, 3.0] + 4.0
        X[:, 5] = 2.5  # a constant column, centred but not scaled
        top = X.max(axis=0)
        constant = top == X.min(axis=0)
        mean = np.where(constant, top, X.mean(axis=0))
        std = np.where(constant, 1.0, X.std(axis=0))
        assert np.array_equal(zscore(X), (X - mean) / std)

    @pytest.mark.parametrize("value, rows", [(5.0, 3), (0.1, 958), (0.3, 157)])
    def test_constant_column_is_exactly_zero(self, value, rows):
        """The mean of 958 rows of 0.1 rounds away from 0.1, which leaves a
        standard deviation of 1.2e-15 that must not scale the column."""
        X = np.column_stack([np.linspace(-1.0, 1.0, rows), np.full(rows, value)])
        Z = zscore(X)
        assert np.array_equal(Z[:, 1], np.zeros(rows))
        assert Z[:, 0].std() == pytest.approx(1.0, abs=1e-12)


class TestDefaultGrid:
    def test_contains_all_methods(self):
        grid = default_grid(300, 300, 800)
        methods = {c.method for c in grid}
        assert methods == {"proposed", "na", "sa"}

    def test_clips_to_pair_limits(self):
        grid = default_grid(30, 30, 800)
        ks = {c.k for c in grid if c.method != "na"}
        assert ks == {20}

    def test_small_pair_falls_back_to_limit(self):
        grid = default_grid(10, 10, 8)
        ks = {c.k for c in grid if c.method != "na"}
        assert ks == {8}


class TestRunBenchmark:
    @pytest.fixture
    def dataset_dir(self, tmp_path):
        src, tgt, _ = planted_benchmark(seed=0)
        save_features_csv(tmp_path / "alpha_plane.csv", src.data)
        save_labels(tmp_path / "alpha_plane.labels", src.labels)
        save_features_csv(tmp_path / "beta_plane.csv", tgt.data)
        save_labels(tmp_path / "beta_plane.labels", tgt.labels)
        return tmp_path

    @pytest.fixture
    def small_grid(self):
        return [
            AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3, method="proposed"),
            AdaptationConfig(k=2, tau_s=0.2, tau_t=0.2, method="proposed"),
            AdaptationConfig(k=2, method="sa"),
            AdaptationConfig(k=1, method="na"),
        ]

    def test_covers_ordered_pairs_and_methods(self, dataset_dir, small_grid):
        result = run_benchmark(dataset_dir, "plane", grid=small_grid, normalize=False)
        keys = {(r.source, r.target, r.config.method) for r in result.best}
        assert keys == {
            (s, t, m)
            for s, t in (("alpha", "beta"), ("beta", "alpha"))
            for m in ("proposed", "na", "sa")
        }
        assert len(result.runs) == 2 * len(small_grid)
        assert result.to_dict()["note"] == GRID_CAVEAT

    def test_best_is_max_over_grid(self, dataset_dir, small_grid):
        result = run_benchmark(dataset_dir, "plane", grid=small_grid, normalize=False)
        for report in result.best:
            rivals = [
                r.accuracy for r in result.runs
                if (r.source, r.target, r.config.method)
                == (report.source, report.target, report.config.method)
            ]
            assert report.accuracy == max(rivals)

    def test_best_keeps_first_seen_order(self, dataset_dir):
        """A better later run replaces a best entry without moving it."""
        grid = [
            AdaptationConfig(k=2, tau_s=1.0, tau_t=1.0, method="proposed"),
            AdaptationConfig(k=2, method="sa"),
            AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3, method="proposed"),
            AdaptationConfig(k=1, method="na"),
        ]
        result = run_benchmark(dataset_dir, "plane", grid=grid, normalize=False)
        assert [(r.source, r.target, r.config.method) for r in result.best] == [
            (s, t, m)
            for s, t in (("alpha", "beta"), ("beta", "alpha"))
            for m in ("proposed", "sa", "na")
        ]
        assert all(
            r.config.tau_s == 0.3 for r in result.best if r.config.method == "proposed"
        )

    def test_adaptation_helps_on_planted_data(self, dataset_dir, small_grid):
        result = run_benchmark(dataset_dir, "plane", grid=small_grid, normalize=False)
        acc = {
            (r.source, r.target, r.config.method): r.accuracy for r in result.best
        }
        assert acc[("alpha", "beta", "proposed")] > acc[("alpha", "beta", "na")] + 15.0

    def test_one_whole_domain_fit_per_domain_and_k(self, tmp_path):
        """Every fit of a domain at one k shares one PCA of the whole domain,
        across taus, caps, methods and pairs."""
        domains = {
            "alpha": planted_benchmark(seed=0)[0],
            "beta": planted_benchmark(seed=0)[1],
            "gamma": planted_benchmark(seed=1)[0],
        }
        for name, fm in domains.items():
            save_features_csv(tmp_path / f"{name}_plane.csv", fm.data)
            save_labels(tmp_path / f"{name}_plane.labels", fm.labels)
        grid = [AdaptationConfig(k=1, method="na"), AdaptationConfig(k=2, method="sa")]
        grid += [
            AdaptationConfig(k=2, tau_s=ts, tau_t=tt)
            for ts in (0.3, 0.5) for tt in (0.3, 0.5)
        ]
        with mock.patch.object(multifit, "fit_pca", wraps=fit_pca) as counted:
            result = run_benchmark(tmp_path, "plane", grid=grid, normalize=False)
        assert len(result.runs) == 6 * len(grid)
        whole = [c.args for c in counted.call_args_list if isinstance(c.args[0], FeatureMatrix)]
        assert len({(id(fm), k) for fm, k in whole}) == len(whole) == len(domains)
        assert all(k == 2 for _, k in whole)
        # Every other fit is a refit or a later round, on fewer rows.
        parts = [c.args[0] for c in counted.call_args_list if not isinstance(c.args[0], FeatureMatrix)]
        smallest = min(fm.n_samples for fm in domains.values())
        assert parts and all(part.shape[0] < smallest for part in parts)

    # On the planted seed-0 pair at k = 2, both domains keep their whole
    # first round at tau 1.0 and beta at 0.6, while tau 0.3 splits both
    # and 0.6 splits alpha: so the grid holds pairs that recur (SA with
    # tau 1.0; alpha's tau-0.3 fit with beta's first round) and pairs of
    # two split fits, which never recur.
    OVERLAP_GRID = [
        AdaptationConfig(k=1, method="na"),
        AdaptationConfig(k=2, method="sa"),
        AdaptationConfig(k=2, tau_s=1.0, tau_t=1.0),
        AdaptationConfig(k=2, tau_s=0.3, tau_t=0.6),
        AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3),
        AdaptationConfig(k=2, tau_s=0.3, tau_t=1.0),
    ]

    @staticmethod
    def _recorded_run(dataset_dir):
        """run_benchmark on OVERLAP_GRID, with every adapt call's arguments
        and result and every distance_matrix call's arguments."""
        calls, formed = [], []
        adapt_, distance_matrix = pipeline.adapt, pipeline.distance_matrix

        def recording_adapt(*args, **kwargs):
            calls.append((args, kwargs, adapt_(*args, **kwargs)))
            return calls[-1][2]

        def counting(source, target):
            formed.append((source, target))
            return distance_matrix(source, target)

        with mock.patch.object(pipeline, "adapt", recording_adapt), \
                mock.patch.object(pipeline, "distance_matrix", counting):
            result = run_benchmark(
                dataset_dir, "plane", grid=TestRunBenchmark.OVERLAP_GRID, normalize=False
            )
        return result, calls, formed

    def test_kept_overlaps_change_no_run(self, dataset_dir):
        """Each run equals an adapt call of its config without a cache, bit
        for bit: predictions, accuracy, matching and features."""
        result, calls, _ = self._recorded_run(dataset_dir)
        assert len(calls) == len(result.runs) == 2 * len(self.OVERLAP_GRID)
        for (source, target, config), _, cached in calls:
            fresh = adapt(source, target, config)
            assert np.array_equal(cached.prediction.predictions, fresh.prediction.predictions)
            assert cached.report.accuracy == fresh.report.accuracy
            assert cached.report.matching == fresh.report.matching
            assert np.array_equal(cached.source_features, fresh.source_features)
            assert np.array_equal(cached.target_features, fresh.target_features)

    def test_recurring_overlaps_are_formed_once(self, dataset_dir):
        """A pair is kept exactly when either fit is one subspace.  SA and a
        proposed config that keeps both whole first rounds make one
        distance_matrix call between them; a split fit paired with a first
        round is formed once for all its taus; a pair of two split fits is
        formed every time and never kept."""
        _, calls, formed = self._recorded_run(dataset_dir)
        assert len(set(map(tuple, formed))) == len(formed) == 7
        cache = calls[0][1]["fit_cache"]
        kept = [key for key in cache if len(key) == 2]
        assert len(kept) == 4
        assert all(min(len(subs) for subs in key) == 1 for key in kept)
        for (source, target, config), _, cached in calls:
            if config.method == "na":
                continue
            key = tuple(
                cache[(data, config.k, tau, config.max_subspaces)].subspaces
                for data, tau in ((source, config.tau_s), (target, config.tau_t))
            )
            split = cached.report.num_src_subspaces > 1 and cached.report.num_tgt_subspaces > 1
            assert (key in cache) != split

    @staticmethod
    def _wide_domains(tmp_path):
        """Three labelled domains 1100 wide, whose first screen is float64,
        written to ``tmp_path`` as the "wide" features."""
        rng = np.random.default_rng(5)
        domains = {
            name: FeatureMatrix(rng.normal(size=(n, 1100)), rng.integers(0, 4, n))
            for name, n in (("alpha", 30), ("beta", 24), ("gamma", 17))
        }
        for name, fm in domains.items():
            save_features_binary(tmp_path / f"{name}_wide.bin", fm.data)
            save_labels(tmp_path / f"{name}_wide.labels", fm.labels)
        return domains

    @staticmethod
    def _na_runs(tmp_path, grid, monkeypatch):
        """run_benchmark's adapt calls as (source, target, predictions), and
        the (rows of one side, rows of the other) of every 1-NN product."""
        runs, products = [], []
        adapt_, matmul = pipeline.adapt, np.matmul

        def recording(source, target, *args, **kwargs):
            result = adapt_(source, target, *args, **kwargs)
            runs.append((source, target, result.prediction.predictions))
            return result

        def counting(x, y, *args, **kwargs):
            products.append(frozenset((x.shape[0], y.shape[1])))
            return matmul(x, y, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "adapt", recording)
            patch.setattr(classify.np, "matmul", counting)
            result = run_benchmark(tmp_path, "wide", grid=grid)
        assert len(result.runs) == len(runs) == 6 * len(grid)
        for source, target, predictions in runs:
            nearest = cdist(target.data, source.data, "sqeuclidean").argmin(axis=1)
            assert np.array_equal(predictions, source.labels[nearest])
        return runs, products

    def test_na_forms_one_product_per_pair(self, tmp_path, monkeypatch):
        """An NA-only grid forms one product per unordered pair: the first
        run of each pair classifies both directions.  Every run's labels
        are cdist's argmin."""
        domains = self._wide_domains(tmp_path)
        _, products = self._na_runs(tmp_path, [AdaptationConfig(k=1, method="na")], monkeypatch)
        sizes = [fm.n_samples for fm in domains.values()]
        assert sorted(products, key=sorted) == sorted(
            (frozenset(pair) for pair in itertools.combinations(sizes, 2)), key=sorted
        )

    def test_na_listed_twice_keeps_cdist_labels(self, tmp_path, monkeypatch):
        """A grid that lists NA twice still forms one product per unordered
        pair, and gives cdist's labels in every one of its 12 runs."""
        self._wide_domains(tmp_path)
        na = AdaptationConfig(k=1, method="na")
        runs, products = self._na_runs(tmp_path, [na, na], monkeypatch)
        assert len(products) == 3
        for i in range(0, len(runs), 2):
            assert np.array_equal(runs[i][2], runs[i + 1][2])

    def test_one_na_run_screens_one_direction(self, tmp_path, monkeypatch):
        """An NA adapt call without a fit cache screens no columns for the
        swapped run, even with a labelled target, and gives cdist's labels;
        with a cache it classifies both directions once."""
        domains = self._wide_domains(tmp_path)
        source, target = domains["alpha"], domains["beta"]
        na = AdaptationConfig(k=1, method="na")
        columns = []
        screen_columns = classify._screen_columns

        def counting(*args):
            columns.append(args[0].shape)
            return screen_columns(*args)

        monkeypatch.setattr(classify, "_screen_columns", counting)
        single = adapt(source, target, na)
        assert columns == []
        nearest = cdist(target.data, source.data, "sqeuclidean").argmin(axis=1)
        assert np.array_equal(single.prediction.predictions, source.labels[nearest])
        cache: dict = {}
        cached = adapt(source, target, na, fit_cache=cache)
        swapped = adapt(target, source, na, fit_cache=cache)
        assert columns == [(24, 30)]
        assert np.array_equal(cached.prediction.predictions, single.prediction.predictions)
        nearest = cdist(source.data, target.data, "sqeuclidean").argmin(axis=1)
        assert np.array_equal(swapped.prediction.predictions, target.labels[nearest])

    def test_logs_one_progress_line_per_ordered_pair(self, dataset_dir, small_grid, caplog):
        with caplog.at_level(logging.INFO, logger="msa.pipeline"):
            result = run_benchmark(dataset_dir, "plane", grid=small_grid, normalize=False)
        lines = [r.getMessage() for r in caplog.records if r.name == "msa.pipeline"]
        assert len(lines) == 2
        assert lines[0].startswith("pair 1/2 alpha -> beta: 4 configs done, ")
        assert lines[1].startswith("pair 2/2 beta -> alpha: 8 configs done, ")
        for line, pair in zip(lines, (("alpha", "beta"), ("beta", "alpha"))):
            top = max(
                (r for r in result.runs if (r.source, r.target) == pair),
                key=lambda r: r.accuracy,
            )
            assert line.endswith(f"accuracy {top.accuracy:.2f}")
            assert f"best {top.config.method}" in line

    def test_table_renders(self, dataset_dir, small_grid):
        result = run_benchmark(dataset_dir, "plane", grid=small_grid, normalize=False)
        table = format_table(result)
        assert "A-B" in table
        assert "B-A" in table
        assert "Avg" in table
        assert "PROPOSED" in table
        assert GRID_CAVEAT in table
