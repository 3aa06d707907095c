"""One benchmark process: set up, measure, trace, check.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the program's sources.
``--mode setup`` only times the set-up; ``--mode run`` also measures the
workload and checks its outputs.  The last line of standard output is a
JSON object for ``run.py``.

Nothing that imports numpy may run before :func:`setup` starts its clock,
because importing ``msa`` (and numpy and scipy with it) is part of set-up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

KINDS = {"surf-grid": "surf", "decaf-grid": "decaf", "adapt-tall": "tall"}

# Proposed configs of a grid that are re-run and checked, drawn once from a
# fixed seed so that every run checks the same ones.
SAMPLE_SEED = 1811
SAMPLE_SIZE = {"surf-grid": 4, "decaf-grid": 2}

# adapt-tall runs whole rounds of this call list and at least MIN_ROUNDS of
# them, so that the p90 latency has at least ten calls beyond it.  The
# proposed call at k = 20, tau = 0.2 collapses to a 1-dimensional shared
# space on these inputs, which alignment.collapsed_configs counts.
TALL_CALLS = (
    ("na", 1, 1.0), ("sa", 20, 1.0), ("na", 1, 1.0), ("proposed", 20, 0.4),
    ("na", 1, 1.0), ("sa", 45, 1.0), ("na", 1, 1.0), ("na", 1, 1.0),
    ("sa", 80, 1.0), ("na", 1, 1.0), ("proposed", 20, 0.2), ("na", 1, 1.0),
    ("sa", 20, 1.0), ("na", 1, 1.0), ("na", 1, 1.0), ("proposed", 45, 0.4),
    ("na", 1, 1.0), ("sa", 45, 1.0), ("na", 1, 1.0), ("na", 1, 1.0),
)
MIN_ROUNDS = 5

# adapt_tail_ms is this percentile of the call latencies.  On adapt-tall
# (at least 100 calls) and surf-grid (192 configs a round) it is the highest
# one with at least ten calls beyond it.  On decaf-grid (72 configs a round)
# that would be p85, which falls between two groups of configs (the NA runs
# on webcam and on dslr pairs) that swap places from run to run; p80 lies
# inside the lower group and has 14 configs beyond it.
TAIL = {"adapt-tall": 0.9, "surf-grid": 0.94, "decaf-grid": 0.8}


def setup(workload: str, data_dir: Path):
    """Import msa, then load and validate every domain through msa.io."""
    start = time.perf_counter()
    import msa
    from msa import io, pipeline

    loaded = {}
    for name, (features, label_file) in io.discover_domains(data_dir, KINDS[workload]).items():
        data = io.load_features(features)
        labels = io.load_labels(label_file)
        if labels.shape[0] != data.shape[0]:
            raise msa.DataFileError(f"{labels.shape[0]} labels for {data.shape[0]} rows")
        if workload == "surf-grid":
            data = pipeline.zscore(data)
        loaded[name] = msa.FeatureMatrix(data, labels)
    return time.perf_counter() - start, loaded


def grid(workload: str):
    """A fixed sub-grid of the default grid (see README)."""
    from msa import pipeline

    ks = (20, 45, 80) if workload == "surf-grid" else (80,)
    return [
        c for c in pipeline.default_grid(10**6, 10**6, 10**6)
        if c.method == "na"
        or (c.k in ks and (c.method == "sa" or {c.tau_s, c.tau_t} <= {0.4, 0.6}))
    ]


def tall_configs():
    from msa import AdaptationConfig

    return [
        AdaptationConfig(k=k, tau_s=tau, tau_t=tau, method=method)
        for method, k, tau in TALL_CALLS
    ]


def _stop(start: float, rounds: int, seconds: float, min_rounds: int = 1) -> bool:
    """Whether another round would overrun the measuring time."""
    elapsed = time.perf_counter() - start
    return rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds


def measure_grid(workload, data_dir, seconds, rounds=None):
    """Whole ``run_benchmark`` calls: as many as fit in ``seconds``, or ``rounds``."""
    from msa import pipeline

    configs = grid(workload)
    out = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = pipeline.run_benchmark(data_dir, KINDS[workload], grid=configs)
        out.append((time.perf_counter() - t, result))
        if len(out) == rounds or (rounds is None and _stop(start, len(out), seconds)):
            return out


def measure_tall(loaded, seconds, rounds=None):
    """Whole rounds of ``TALL_CALLS``; returns per-call latencies and results.

    Only the first round's results are kept whole, for the checks; later
    rounds keep their predictions.
    """
    from msa import pipeline

    source, target = loaded["source"], loaded["target"]
    configs = tall_configs()
    latencies, first, later = [], [], []
    start = time.perf_counter()
    n = 0
    while True:
        for config in configs:
            t = time.perf_counter()
            result = pipeline.adapt(source, target, config, "source", "target")
            latencies.append(time.perf_counter() - t)
            if n == 0:
                first.append(result)
            else:
                later.append(result.prediction.predictions)
            del result  # so that the next call does not run beside this one's arrays
        n += 1
        if n == rounds or (rounds is None and _stop(start, n, seconds, MIN_ROUNDS)):
            return latencies, first, later, n


def reference_inputs(workload, seed, data_dir, loaded):
    """Independently parsed inputs per domain, and failures of the io checks."""
    import numpy as np

    import checks
    import generate

    spec = generate.WORKLOADS[workload]
    truth = generate.labels(workload, seed)
    refs, failures = {}, []
    for name, labels in truth.items():
        stem = data_dir / f"{name}_{spec['kind']}"
        if spec["fmt"] == "csv":
            x = np.loadtxt(stem.with_suffix(".csv"), delimiter=",", ndmin=2)
        else:
            x = np.fromfile(stem.with_suffix(".bin"), dtype="<f8", offset=12)
            x = x.reshape(len(labels), spec["d"])
        if workload == "surf-grid":
            x = checks.zscore(x)
        got = loaded.get(name)
        if got is None or got.data.shape != x.shape or not np.allclose(got.data, x, rtol=1e-12, atol=1e-12):
            failures.append(f"{name}: loaded features differ from an independent parse")
        if got is None or not np.array_equal(got.labels, labels):
            failures.append(f"{name}: loaded labels differ from the generated ones")
        refs[name] = checks.Domain(x, labels)
    return refs, failures


def check_grid(workload, seed, data_dir, loaded, rounds):
    """Flagged run indices, whole-grid failures, messages and re-runs checked."""
    import numpy as np

    import checks
    from msa import pipeline

    refs, whole = reference_inputs(workload, seed, data_dir, loaded)
    runs = rounds[0][1].runs
    configs = grid(workload)
    expected = [(s, t, c) for s in sorted(refs) for t in sorted(refs) if s != t for c in configs]
    if [(r.source, r.target, r.config) for r in runs] != expected:
        whole.append("the grid did not run every (pair, config) once in order")
        return set(), whole, [], 0
    whole += checks.check_grid_gain(runs)

    flagged, messages = set(), []
    first = [r.accuracy for r in runs]
    for _, result in rounds[1:]:
        for i, r in enumerate(result.runs):
            if r.accuracy != first[i]:
                flagged.add(i)
                messages.append(f"run {i}: accuracy changed between rounds")

    proposed = [i for i, r in enumerate(runs) if r.config.method == "proposed"]
    sample = np.random.default_rng(SAMPLE_SEED).choice(proposed, SAMPLE_SIZE[workload], replace=False)
    chosen = [i for i, r in enumerate(runs) if r.config.method != "proposed" or i in set(sample)]
    cache: dict = {}
    for i in chosen:
        report = runs[i]
        s, t = report.source, report.target
        result = pipeline.adapt(
            loaded[s], loaded[t], report.config, source_name=s, target_name=t, fit_cache=cache
        )
        for message in checks.check_result(result, report.config, refs[s], refs[t], report.accuracy):
            flagged.add(i)
            messages.append(f"{s}->{t} {report.config}: {message}")
    return flagged, whole, messages, len(chosen)


def check_tall(seed, data_dir, loaded, first, later):
    """Flagged call indices, whole-run failures, messages and calls checked."""
    import numpy as np

    import checks

    refs, whole = reference_inputs("adapt-tall", seed, data_dir, loaded)
    configs = tall_configs()
    flagged, messages = set(), []
    for i, (config, result) in enumerate(zip(configs, first)):
        for message in checks.check_result(result, config, refs["source"], refs["target"]):
            flagged.add(i)
            messages.append(f"call {i} {config}: {message}")
    for j, predictions in enumerate(later):
        i = j % len(configs)
        if not np.array_equal(predictions, first[i].prediction.predictions):
            flagged.add(i)
            messages.append(f"call {i}: predictions changed between rounds")
    return flagged, whole, messages, len(first)


def layer_metrics(tracer, rounds: int, untraced: float, traced: float) -> dict:
    """Per-round per-layer metrics from a traced phase."""
    from tracer import LAYERS

    inclusive, own = tracer.times()
    c = tracer.counts

    def per_round(value):
        return value / rounds

    fits = c["multifit.fit_multi.calls"]
    features = c["alignment.build_features.calls"]
    metrics = {
        "io.load_features.s": (per_round(inclusive.get("io.load_features", 0.0)), "s"),
        "io.bytes_read": (per_round(c["io.bytes_read"]), "bytes"),
        "pipeline.zscore.s": (per_round(inclusive.get("pipeline.zscore", 0.0)), "s"),
        "pipeline.adapt.calls": (per_round(c["pipeline.adapt.calls"]), "count"),
        "pipeline.adapt.self_s": (per_round(own.get("pipeline.adapt", 0.0)), "s"),
        "pipeline.fit_requests": (per_round(c["pipeline.fit_requests"]), "count"),
        "pipeline.fit_reuse": (c["pipeline.fit_requests"] / fits if fits else 0.0, "ratio"),
        "multifit.fit_multi.calls": (per_round(fits), "count"),
        "multifit.fit_multi.self_s": (per_round(own.get("multifit.fit_multi", 0.0)), "s"),
        "multifit.subspaces": (per_round(c["multifit.subspaces"]), "count"),
        "multifit.tau_escalations": (per_round(c["multifit.tau_escalations"]), "count"),
        "subspace.fit_pca.calls": (per_round(c["subspace.fit_pca.calls"]), "count"),
        "subspace.fit_pca.s": (per_round(inclusive.get("subspace.fit_pca", 0.0)), "s"),
        "subspace.fit_pca.flops": (per_round(c["subspace.fit_pca.flops"]), "flop"),
        "subspace.reconstruction_errors.s": (per_round(inclusive.get("subspace.reconstruction_errors", 0.0)), "s"),
        "subspace.reconstruction_errors.rows": (per_round(c["subspace.reconstruction_errors.rows"]), "count"),
        "grassmann.distance_matrix.s": (per_round(inclusive.get("grassmann.distance_matrix", 0.0)), "s"),
        "grassmann.pairs_scored": (per_round(c["grassmann.pairs_scored"]), "count"),
        "matching.greedy_match.s": (per_round(inclusive.get("matching.greedy_match", 0.0)), "s"),
        "alignment.build_features.s": (per_round(inclusive.get("alignment.build_features", 0.0)), "s"),
        "alignment.shared_dim_mean": (c["alignment.shared_dim_sum"] / features if features else 0.0, "dim"),
        "alignment.collapsed_configs": (per_round(c["alignment.collapsed_configs"]), "count"),
        "classify.nn_classify.s": (per_round(inclusive.get("classify.nn_classify", 0.0)), "s"),
        "classify.distance_flops": (per_round(c["classify.distance_flops"]), "flop"),
        "classify.max_matrix_mb": (tracer.maxima.get("classify.max_matrix_mb", 0.0), "MB"),
    }
    layer_self = {
        layer: sum(v for name, v in own.items() if name.split(".")[0] == layer)
        for layer in LAYERS
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = (per_round(seconds), "s")
    metrics["trace.outside_s"] = (per_round(traced - sum(layer_self.values())), "s")
    metrics["trace.overhead_s"] = (per_round(traced - untraced), "s")
    return metrics


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "commit": commit,
    }


def blas_threads():
    """Threads of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run(args) -> dict:
    setup_s, loaded = setup(args.workload, args.data)
    sys.path.insert(0, str(HERE))
    out = {"setup_s": setup_s, "env": environment(args.seed)}
    tall = args.workload == "adapt-tall"

    if tall:
        latencies, first, later, rounds = measure_tall(loaded, args.seconds)
        size = len(TALL_CALLS)
        round_walls = [sum(latencies[i:i + size]) for i in range(0, len(latencies), size)]
    else:
        measured = measure_grid(args.workload, args.data, args.seconds)
        rounds = len(measured)
        round_walls = [dt for dt, _ in measured]
        # Each report carries the wall time adapt measured for its config.
        latencies = [r.wall_time for _, result in measured for r in result.runs]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = len(latencies)
    ordered = sorted(latencies)
    metrics = {
        "configs_per_s": (ops / rounds / statistics.median(round_walls), "1/s"),
        "peak_rss_mb": (peak, "MB"),
        "adapt_p50_ms": (1000.0 * statistics.median(ordered), "ms"),
        "adapt_tail_ms": (1000.0 * ordered[math.ceil(TAIL[args.workload] * ops) - 1], "ms"),
    }

    total_rounds = rounds
    if args.trace:
        import msa
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed(msa):
            start = time.perf_counter()
            if tall:
                _, _, traced_later, _ = measure_tall(loaded, args.seconds, rounds)
                later += traced_later
            else:
                measured += measure_grid(args.workload, args.data, args.seconds, rounds)
            traced = time.perf_counter() - start
        total_rounds += rounds
        tracer.dump(args.out / f"trace-{args.workload}-{args.seed}.json")
        metrics = layer_metrics(tracer, rounds, sum(round_walls), traced)

    if tall:
        flagged, whole, messages, checked = check_tall(args.seed, args.data, loaded, first, later)
    else:
        flagged, whole, messages, checked = check_grid(args.workload, args.seed, args.data, loaded, measured)
    per_round = ops // rounds
    attempted = per_round * total_rounds
    failed = attempted if whole else len(flagged) * total_rounds
    out.update(
        rounds=rounds,
        attempted=attempted,
        failed=failed,
        checked=checked,
        failures=(whole + messages)[:50],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(KINDS))
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = {"setup_s": setup(args.workload, args.data)[0]}
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
