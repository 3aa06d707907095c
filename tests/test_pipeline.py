"""End-to-end pipeline behaviour and the benchmark harness."""

import json
import logging
from dataclasses import asdict, fields, replace
from unittest import mock

import numpy as np
import pytest

from msa import multifit, pipeline
from msa.exceptions import ConfigError
from msa.io import save_features_csv, save_labels
from msa.pipeline import (
    GRID_CAVEAT,
    AdaptationConfig,
    adapt,
    default_grid,
    format_table,
    report_to_json,
    run_benchmark,
    zscore,
)
from msa.subspace import FeatureMatrix, fit_pca
from msa.synthetic import planted_benchmark


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

    @pytest.mark.parametrize("config", [
        AdaptationConfig(k=2, method="na"),
        AdaptationConfig(k=2, method="sa"),
        AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3),
        AdaptationConfig(k=2, tau_s=0.2, tau_t=0.5),
    ], ids=["na", "sa", "tau-0.3", "tau-0.2-0.5"])
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
        with pytest.raises(ConfigError):
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
