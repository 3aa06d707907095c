"""Command line interface, run in process."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from msa import AdaptationConfig
from msa.cli import main
from msa.io import load_features, save_features_csv, save_labels
from msa.pipeline import adapt, report_to_json
from msa.synthetic import planted_benchmark


@pytest.fixture
def pair_files(tmp_path):
    src, tgt, _ = planted_benchmark(seed=0)
    paths = {
        "src": tmp_path / "src.csv",
        "src_labels": tmp_path / "src.labels",
        "tgt": tmp_path / "tgt.csv",
        "tgt_labels": tmp_path / "tgt.labels",
    }
    save_features_csv(paths["src"], src.data)
    save_labels(paths["src_labels"], src.labels)
    save_features_csv(paths["tgt"], tgt.data)
    save_labels(paths["tgt_labels"], tgt.labels)
    return paths


def _adapt_argv(paths, *extra):
    return [
        "adapt",
        "--src", str(paths["src"]),
        "--src-labels", str(paths["src_labels"]),
        "--tgt", str(paths["tgt"]),
        "--tgt-labels", str(paths["tgt_labels"]),
        "--k", "2",
        *extra,
    ]


class TestAdaptCommand:
    def test_prints_two_decimal_accuracy(self, pair_files, capsys):
        assert main(_adapt_argv(pair_files)) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("accuracy:"))
        value = line.split()[1]
        assert value == f"{float(value):.2f}"
        assert float(value) > 60.0

    def test_reports_subspace_counts(self, pair_files, capsys):
        main(_adapt_argv(pair_files))
        out = capsys.readouterr().out
        assert "subspaces: 2 source, 2 target" in out

    def test_writes_json_report(self, pair_files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(_adapt_argv(pair_files, "--out", str(out_path))) == 0
        payload = json.loads(out_path.read_text())
        assert payload["config"]["k"] == 2
        assert len(payload["predictions"]) == 200
        assert payload["accuracy"] == pytest.approx(
            100.0 * np.mean(
                np.array(payload["predictions"])
                == np.loadtxt(pair_files["tgt_labels"], dtype=int)
            )
        )

    def test_defaults_are_the_config_defaults(self, pair_files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(_adapt_argv(pair_files, "--out", str(out_path))) == 0
        assert json.loads(out_path.read_text())["config"] == asdict(AdaptationConfig(k=2))

    def test_na_report_records_no_fit_settings(self, pair_files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        argv = _adapt_argv(pair_files, "--method", "na", "--tau-s", "0.5", "--out", str(out_path))
        assert main(argv) == 0
        config = json.loads(out_path.read_text())["config"]
        assert (config["tau_s"], config["tau_t"], config["max_subspaces"]) == (None, None, None)

    def test_unscored_without_target_labels(self, pair_files, capsys):
        argv = [
            "adapt",
            "--src", str(pair_files["src"]),
            "--src-labels", str(pair_files["src_labels"]),
            "--tgt", str(pair_files["tgt"]),
            "--k", "2",
        ]
        assert main(argv) == 0
        assert "n/a" in capsys.readouterr().out

    def test_missing_file_exits_2(self, pair_files, tmp_path, capsys):
        pair_files["src"] = tmp_path / "absent.csv"
        assert main(_adapt_argv(pair_files)) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, pair_files, capsys):
        pair_files["src"].write_text("1.0,junk\n2.0,3.0\n")
        assert main(_adapt_argv(pair_files)) == 2

    @pytest.mark.parametrize("key", ["src", "npy", "src_labels"])
    def test_undecodable_file_exits_2(self, pair_files, tmp_path, capsys, key):
        """A latin-1 CSV, a .npy file given as --src and a label file with
        a byte UTF-8 cannot decode: one error line naming the file."""
        if key == "npy":
            key, bad = "src", tmp_path / "src.npy"
            np.save(bad, load_features(pair_files["src"]))
        else:
            bad = pair_files[key]
            bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xe9", 1))
        pair_files[key] = bad
        assert main(_adapt_argv(pair_files)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_label_count_mismatch_names_label_file(self, pair_files, tmp_path, capsys):
        short = tmp_path / "short.labels"
        short.write_text("".join(f"{i % 2}\n" for i in range(18)))
        for key in ("src_labels", "tgt_labels"):
            paths = dict(pair_files, **{key: short})
            assert main(_adapt_argv(paths)) == 2
            assert str(short) in capsys.readouterr().err

    def test_mismatched_widths_exit_2(self, pair_files, capsys):
        """Domains of different widths are a data problem, not a configuration one."""
        narrow = load_features(pair_files["tgt"])[:, :-1]
        save_features_csv(pair_files["tgt"], narrow)
        assert main(_adapt_argv(pair_files)) == 2
        assert "feature dimension (8 vs 7)" in capsys.readouterr().err

    def test_bad_method_exits_3(self, pair_files, capsys):
        assert main(_adapt_argv(pair_files, "--method", "magic")) == 3
        assert "error:" in capsys.readouterr().err

    def test_oversized_k_exits_3(self, pair_files, capsys):
        argv = _adapt_argv(pair_files)
        argv[argv.index("--k") + 1] = "50"
        assert main(argv) == 3
        assert "stage 'fit_source'" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, pair_files, tmp_path, capsys):
        out_path = tmp_path / "absent" / "report.json"
        assert main(_adapt_argv(pair_files, "--out", str(out_path))) == 2
        assert str(out_path) in capsys.readouterr().err

    def test_zscore_flag_runs(self, pair_files, capsys):
        assert main(_adapt_argv(pair_files, "--zscore", "on")) == 0
        assert main(_adapt_argv(pair_files, "--zscore", "off")) == 0
        with pytest.raises(SystemExit):
            main(_adapt_argv(pair_files, "--zscore"))


class TestBenchmarkCommand:
    @pytest.fixture
    def dataset_dir(self, tmp_path):
        src, tgt, _ = planted_benchmark(seed=0)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        save_features_csv(data_dir / "alpha_plane.csv", src.data)
        save_labels(data_dir / "alpha_plane.labels", src.labels)
        save_features_csv(data_dir / "beta_plane.csv", tgt.data)
        save_labels(data_dir / "beta_plane.labels", tgt.labels)
        return data_dir

    @pytest.fixture
    def grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([
            {"k": 2, "tau_s": 0.3, "tau_t": 0.3, "method": "proposed"},
            {"k": 2, "method": "sa"},
            {"k": 1, "method": "na"},
        ]))
        return path

    def test_table_output(self, dataset_dir, grid_file, capsys):
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(grid_file), "--zscore", "off", "--table",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "A-B" in out and "B-A" in out and "Avg" in out

    @pytest.mark.parametrize("flag", ["-v", "--verbose"])
    def test_verbose_logs_each_pair(self, dataset_dir, grid_file, capsys, flag):
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(grid_file), "--zscore", "off", flag,
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "pair 1/2 alpha -> beta", "pair 2/2 beta -> alpha",
        ]
        assert all("configs done" in line and " best " in line for line in lines)
        # The table is unchanged: one row per pair, no progress in it.
        assert "A-B" in captured.out and "configs done" not in captured.out

    def test_quiet_without_verbose(self, dataset_dir, grid_file, capsys):
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(grid_file), "--zscore", "off",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        # A verbose run does not leave the logger configured.
        assert main(argv + ["-v"]) == 0 and main(argv) == 0
        assert capsys.readouterr().err.count("configs done") == 2

    def test_json_output(self, dataset_dir, grid_file, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(grid_file), "--zscore", "off", "--out", str(out_path),
        ]
        assert main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert payload["note"]
        assert len(payload["best"]) == 6
        assert len(payload["runs"]) == 6
        # The SA entry gives no thresholds; the runs record the ones it ran.
        sa = [r["config"] for r in payload["runs"] if r["config"]["method"] == "sa"]
        assert [(c["tau_s"], c["tau_t"], c["max_subspaces"]) for c in sa] == [(1.0, 1.0, 1)] * 2
        # NA fits nothing and records no fit settings.
        na = [r["config"] for r in payload["runs"] if r["config"]["method"] == "na"]
        assert [(c["tau_s"], c["tau_t"], c["max_subspaces"]) for c in na] == [(None, None, None)] * 2

    def test_out_configs_read_back_as_grid(self, dataset_dir, grid_file, tmp_path, capsys):
        """Every config an --out file records, NA's None included, is a
        valid --grid entry that runs as recorded."""
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--zscore", "off", "--out",
        ]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(argv + [str(first), "--grid", str(grid_file)]) == 0
        configs = [r["config"] for r in json.loads(first.read_text())["runs"]]
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps(configs))
        assert main(argv + [str(second), "--grid", str(recorded)]) == 0
        again = [r["config"] for r in json.loads(second.read_text())["runs"]]
        assert again == configs + configs

    def test_numpy_typed_config_reads_back_as_grid(self, dataset_dir, tmp_path, capsys):
        """The JSON report of a config given numpy numbers records builtin
        ones, and its config is a --grid entry that runs as recorded."""
        src, tgt, _ = planted_benchmark(seed=0)
        config = AdaptationConfig(k=np.int64(2), tau_s=np.float32(0.3), max_subspaces=np.int64(4))
        recorded = json.loads(report_to_json(adapt(src, tgt, config).report))["config"]
        assert recorded == asdict(config)
        grid = tmp_path / "recorded.json"
        grid.write_text(json.dumps([recorded]))
        out_path = tmp_path / "bench.json"
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(grid), "--zscore", "off", "--out", str(out_path),
        ]
        assert main(argv) == 0
        runs = json.loads(out_path.read_text())["runs"]
        assert [r["config"] for r in runs] == [recorded, recorded]

    def test_json_runs_describe_fits_and_matching(self, dataset_dir, grid_file, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(grid_file), "--zscore", "off", "--out", str(out_path),
        ]
        assert main(argv) == 0
        for run in json.loads(out_path.read_text())["runs"]:
            if run["config"]["method"] == "na":
                assert (run["source_fit"], run["target_fit"], run["matching"]) == (None, None, None)
                assert run["feature_dim"] == 8
                continue
            for side, count in (("source_fit", "num_src_subspaces"), ("target_fit", "num_tgt_subspaces")):
                assert sum(run[side]["sample_counts"]) == 200
                assert len(run[side]["ranks"]) == run[count]
            assert len(run["matching"]["pairs"]) == run["num_src_subspaces"]
            assert run["feature_dim"] <= run["config"]["k"]

    def test_unwritable_out_exits_2(self, dataset_dir, grid_file, tmp_path, capsys):
        out_path = tmp_path / "absent" / "bench.json"
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(grid_file), "--zscore", "off", "--out", str(out_path),
        ]
        assert main(argv) == 2
        assert str(out_path) in capsys.readouterr().err

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        argv = ["benchmark", "--dir", str(tmp_path), "--features", "plane"]
        assert main(argv) == 2

    def test_bad_grid_json_exits_2(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "grid.json"
        bad.write_text("{not json")
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(bad),
        ]
        assert main(argv) == 2

    def test_undecodable_grid_exits_2(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "grid.json"
        bad.write_bytes(b'[{"k": 1, "method": "na\xe9"}]')
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(bad),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: not UTF-8 text: invalid continuation byte (byte 0xe9)\n"

    def test_grid_with_byte_order_mark_runs(self, dataset_dir, grid_file, capsys):
        grid_file.write_text("\ufeff" + grid_file.read_text(), encoding="utf-8")
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(grid_file), "--zscore", "off",
        ]
        assert main(argv) == 0
        assert "A-B" in capsys.readouterr().out

    def test_bad_grid_entry_exits_3(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "grid.json"
        argv = [
            "benchmark", "--dir", str(dataset_dir), "--features", "plane",
            "--grid", str(bad),
        ]
        # An unknown key, a fractional cap that would silently lift the
        # subspace limit, and a bool tau that would run as tau = 1.0.
        for entry, named in (
            ({"k": 2, "bogus": 1}, "bogus"),
            ({"k": 2, "tau_s": 0.2, "tau_t": 0.2, "max_subspaces": 2.5}, "max_subspaces"),
            ({"k": 2, "tau_s": True, "tau_t": 0.2}, "tau_s"),
        ):
            bad.write_text(json.dumps([entry]))
            assert main(argv) == 3
            assert named in capsys.readouterr().err
