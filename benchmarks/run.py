"""Benchmark entry point: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload surf-grid --seed 0 --seconds 20 --trace 0

Generates the workload's input files from the seed, times set-up in
separate processes, runs the workload in a fresh process and prints each
metric by name with its unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, printing no result, when anything fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_run"
sys.path.insert(0, str(HERE))

import generate  # noqa: E402  (a sibling file, found through the path above)

# Set-up is timed this many times, in fresh processes, and the median taken.
SETUP_REPEATS = 5
CHILD_TIMEOUT = 170


def child(args: list[str]) -> dict:
    """Run ``workload.py`` in a fresh interpreter and parse its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "msa" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    data = OUT / f"data-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        generate.write(args.workload, args.seed, data)
        common = ["--workload", args.workload, "--data", str(data), "--out", str(OUT), "--seed", str(args.seed)]
        setups = [child(common + ["--mode", "setup"])["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        result = child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)

    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record = dict(result, workload=args.workload, trace=args.trace, setup_samples=setups)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("env: " + json.dumps(result["env"]))
    for message in result["failures"]:
        print(f"FAILED: {message}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"attempted: {result['attempted']} failed: {result['failed']} rounds: {result['rounds']} checked: {result['checked']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
