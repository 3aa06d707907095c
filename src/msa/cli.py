"""Command line front end.

Two subcommands: ``adapt`` runs the pipeline on one source/target pair and
prints the accuracy, ``benchmark`` sweeps every ordered domain pair of a
dataset directory; ``benchmark -v`` logs one progress line per pair to
standard error.  Exit codes: 0 on success, 2 for input or data-format
problems, 3 for configuration problems.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import pipeline
from .exceptions import ConfigError, DataFileError, DegenerateDataError, DimensionMismatchError
from .io import _not_utf8

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msa",
        description="Multi-subspace alignment for unsupervised domain adaptation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_adapt = sub.add_parser("adapt", help="run one source/target pair")
    p_adapt.add_argument("--src", required=True, help="source feature file")
    p_adapt.add_argument("--src-labels", required=True, help="source label file")
    p_adapt.add_argument("--tgt", required=True, help="target feature file")
    p_adapt.add_argument("--tgt-labels", help="target label file, enables scoring")
    p_adapt.add_argument("--k", type=int, required=True, help="subspace dimension")
    defaults = pipeline.AdaptationConfig
    p_adapt.add_argument("--tau-s", type=float, default=defaults.tau_s, help="source threshold")
    p_adapt.add_argument("--tau-t", type=float, default=defaults.tau_t, help="target threshold")
    p_adapt.add_argument(
        "--method", default=defaults.method, help="proposed, na or sa (default: %(default)s)"
    )
    p_adapt.add_argument(
        "--max-subspaces", type=int, default=defaults.max_subspaces,
        help="cap on subspaces per domain",
    )
    p_adapt.add_argument(
        "--zscore", choices=("on", "off"), default="off",
        help="per-domain z-scoring (default: off)",
    )
    p_adapt.add_argument("--out", help="write report and predictions as JSON")

    p_bench = sub.add_parser("benchmark", help="sweep every domain pair of a directory")
    p_bench.add_argument("--dir", required=True, help="dataset directory")
    p_bench.add_argument("--features", required=True, help="feature kind, e.g. surf")
    p_bench.add_argument(
        "--grid", help="JSON file with a list of config objects to sweep"
    )
    p_bench.add_argument(
        "--zscore", choices=("on", "off"),
        help="per-domain z-scoring (default: on for surf features)",
    )
    p_bench.add_argument("--out", help="write all reports as JSON")
    p_bench.add_argument(
        "--table", action="store_true", help="print the best-per-pair table"
    )
    p_bench.add_argument(
        "-v", "--verbose", action="store_true",
        help="log progress and each pair's best config to standard error",
    )
    return parser


def _load_grid(path) -> list[pipeline.AdaptationConfig]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            entries = json.load(fh)
    except OSError as exc:
        raise DataFileError(str(exc), path=path) from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        raise DataFileError(f"invalid JSON: {exc}", path=path) from None
    if not isinstance(entries, list) or not entries:
        raise DataFileError("grid file must hold a non-empty JSON list", path=path)
    grid = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataFileError(f"grid entry is not an object: {entry!r}", path=path)
        try:
            grid.append(pipeline.AdaptationConfig(**entry))
        except TypeError as exc:
            raise ConfigError(f"bad grid entry {entry!r}: {exc}") from None
    return grid


def _write_out(path, text: str) -> None:
    """Write ``text`` and a final newline to ``path``; OSError is a data error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DataFileError(f"cannot write: {exc.strerror or exc}", path=path) from None


def _cmd_adapt(args) -> int:
    normalize = args.zscore == "on"
    source = pipeline.load_domain(args.src, args.src_labels, normalize)
    target = pipeline.load_domain(args.tgt, args.tgt_labels, normalize)
    config = pipeline.AdaptationConfig(
        k=args.k, tau_s=args.tau_s, tau_t=args.tau_t,
        method=args.method, max_subspaces=args.max_subspaces,
    )
    result = pipeline.adapt(source, target, config)
    report = result.report
    if report.accuracy is None:
        print("accuracy: n/a (target labels not provided)")
    else:
        print(f"accuracy: {report.accuracy:.2f}")
    print(
        f"subspaces: {report.num_src_subspaces} source, "
        f"{report.num_tgt_subspaces} target"
    )
    if args.out:
        _write_out(args.out, pipeline.report_to_json(report, result.prediction.predictions))
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    grid = _load_grid(args.grid) if args.grid else None
    normalize = None if args.zscore is None else args.zscore == "on"
    # main() can run in process, so the logger is left as it was found.
    logger, handler = pipeline.logger, logging.StreamHandler(sys.stderr)
    level = logger.level
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        result = pipeline.run_benchmark(
            args.dir, args.features, grid=grid, normalize=normalize
        )
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    if args.table or not args.out:
        print(pipeline.format_table(result))
    if args.out:
        _write_out(args.out, json.dumps(result.to_dict(), indent=2))
        print(f"reports written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "adapt":
            return _cmd_adapt(args)
        return _cmd_benchmark(args)
    except (DataFileError, DimensionMismatchError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
