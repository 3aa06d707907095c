"""End-to-end adaptation pipeline and the benchmark harness.

The full pipeline decomposes both domains into unions of subspaces, matches
them across domains on the Grassmann manifold, aligns each matched pair in
closed form, projects both domains into the shared coordinates and labels
target samples with a 1-nearest-neighbour classifier trained on the
projected source.  Two reference paths are built in: ``na`` classifies raw
features without any adaptation, and ``sa`` is the configuration with one
subspace per domain (``max_subspaces`` 1, both thresholds 1.0), which
reduces the pipeline to plain subspace alignment.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import io
from .alignment import build_features
from .classify import PredictionResult, evaluate_accuracy, nn_classify, nn_classify_both
from .exceptions import ConfigError, DataFileError, DimensionMismatchError, MSAError
from .grassmann import distance_matrix
from .matching import Matching, greedy_match
from .multifit import SubspaceCollection, _check_fit_settings, fit_multi
from .subspace import FeatureMatrix

logger = logging.getLogger(__name__)

METHODS = ("proposed", "na", "sa")

GRID_CAVEAT = (
    "best-of-grid accuracies; hyperparameters were selected by grid search "
    "directly on target-domain test error"
)


@dataclass(frozen=True)
class AdaptationConfig:
    """Hyperparameters of one pipeline run.

    Args:
        k: subspace dimension handed to the decomposition of both domains.
        tau_s: source-domain inlier threshold in (0, 1].
        tau_t: target-domain inlier threshold in (0, 1].
        method: "proposed", "na" (no adaptation, which fits nothing: it
            accepts None for tau_s, tau_t and max_subspaces, validates any
            other value, then stores all three as None)
            or "sa" (single subspace: after validation, tau_s = tau_t = 1.0
            and max_subspaces = 1 are stored whatever was given).
        max_subspaces: cap on subspaces per domain.
    """

    k: int
    tau_s: float | None = 0.3
    tau_t: float | None = 0.3
    method: str = "proposed"
    max_subspaces: int | None = 16

    def __post_init__(self):
        object.__setattr__(self, "method", str(self.method).lower())
        if self.method not in METHODS:
            raise ConfigError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        names = ("tau_s", "tau_t", "max_subspaces")
        given = {name: getattr(self, name) for name in names}
        if self.method == "na":
            # NA accepts the None it stores, so its --out record reads back.
            given = {name: v for name, v in given.items() if v is not None}
        _check_fit_settings(k=self.k, **given)
        # Store builtin numbers, so that a numpy-typed setting reports as JSON.
        object.__setattr__(self, "k", int(self.k))
        for name, value in given.items():
            object.__setattr__(self, name, int(value) if name == "max_subspaces" else float(value))
        # SA fits one subspace per domain and NA fits none: store what runs.
        fixed = {"sa": (1.0, 1.0, 1), "na": (None, None, None)}.get(self.method)
        if fixed is not None:
            for name, value in zip(names, fixed):
                object.__setattr__(self, name, value)


@dataclass(frozen=True)
class FitSummary:
    """The shape of one domain's decomposition, in plain Python ints.

    ``ranks`` and ``sample_counts`` hold, per subspace in fit order, its
    rank and the number of samples assigned to it; ``tau_escalations`` counts
    the threshold doublings the fit needed.
    """

    ranks: tuple[int, ...]
    sample_counts: tuple[int, ...]
    tau_escalations: int

    @classmethod
    def of(cls, fit: SubspaceCollection) -> FitSummary:
        return cls(
            ranks=tuple(sub.rank for sub in fit.subspaces),
            sample_counts=tuple(block.shape[0] for block in fit.coords),
            tau_escalations=int(fit.tau_escalations),
        )


@dataclass(frozen=True)
class AdaptationReport:
    """Summary of one pipeline run.

    ``accuracy`` is a percentage in [0, 100], or None when the target carried
    no labels.  ``source_fit``, ``target_fit`` and ``matching`` describe the
    decompositions and their pairing; NA fits nothing and holds None in all
    three.  ``num_src_subspaces`` and ``num_tgt_subspaces`` count the
    subspaces of each fit, 0 for NA.  ``feature_dim`` is the width of the
    features 1-NN compared.  ``stage_seconds`` maps each pipeline stage
    that actually ran, in order, to the seconds it took.  ``wall_time`` is
    in seconds.
    """

    source: str
    target: str
    accuracy: float | None
    source_fit: FitSummary | None
    target_fit: FitSummary | None
    matching: Matching | None
    feature_dim: int
    config: AdaptationConfig
    wall_time: float
    stage_seconds: dict[str, float]

    @property
    def num_src_subspaces(self) -> int:
        return 0 if self.source_fit is None else len(self.source_fit.ranks)

    @property
    def num_tgt_subspaces(self) -> int:
        return 0 if self.target_fit is None else len(self.target_fit.ranks)

    def to_dict(self) -> dict:
        fields = asdict(self)
        return {
            "domain_pair": [fields.pop("source"), fields.pop("target")],
            "accuracy": fields.pop("accuracy"),
            "num_src_subspaces": self.num_src_subspaces,
            "num_tgt_subspaces": self.num_tgt_subspaces,
            **fields,
        }


@dataclass(frozen=True, eq=False)
class AdaptationResult:
    """Everything a pipeline run produced."""

    prediction: PredictionResult
    report: AdaptationReport
    source_features: np.ndarray
    target_features: np.ndarray


def zscore(data: np.ndarray) -> np.ndarray:
    """Zero mean, unit standard deviation per feature dimension.

    Constant dimensions are centred but left unscaled, so they map to 0.0.
    """
    arr = np.asarray(data, dtype=np.float64)
    # A constant column's mean can round away from its value, leaving a
    # standard deviation of rounding residue: test the extremes instead.
    top = arr.max(axis=0)
    constant = top == arr.min(axis=0)
    mean = np.where(constant, top, arr.mean(axis=0))
    std = arr.std(axis=0)
    std = np.where(constant | (std == 0.0), 1.0, std)
    centred = arr - mean
    centred /= std  # in place: the same values as (arr - mean) / std
    return centred


def load_domain(feature_path, label_path=None, normalize: bool = False) -> FeatureMatrix:
    """Read one domain's feature file, and its label file when given.

    Args:
        feature_path: feature file in either format of :mod:`msa.io`.
        label_path: label file with one label per feature row, or None.
        normalize: z-score the features per dimension (see :func:`zscore`).

    Raises:
        DataFileError: a file is missing or malformed, or the label count
            differs from the number of feature rows (naming the label file).
    """
    data = io.load_features(feature_path)
    labels = None
    if label_path is not None:
        labels = io.load_labels(label_path)
        if labels.shape[0] != data.shape[0]:
            raise DataFileError(
                f"{labels.shape[0]} labels for {data.shape[0]} samples",
                path=label_path,
            )
    if normalize:
        data = zscore(data)
    # The array is this call's own, so it is kept rather than copied: a
    # second N x d allocation per domain, freed at once, leaves a hole in
    # the heap whose reuse varied the peak memory from input to input.
    return FeatureMatrix(data, labels, copy=False)


def _run_stage(stage_seconds: dict[str, float], name: str, fn, *args):
    start = time.perf_counter()
    try:
        result = fn(*args)
    except MSAError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc
    stage_seconds[name] = time.perf_counter() - start
    return result


def adapt(
    source: FeatureMatrix,
    target: FeatureMatrix,
    config: AdaptationConfig,
    source_name: str = "source",
    target_name: str = "target",
    fit_cache: dict | None = None,
) -> AdaptationResult:
    """Run the pipeline on one domain pair.

    Args:
        source: labelled source-domain features.
        target: target-domain features; labels, when present, are used only
            to score accuracy.
        config: pipeline hyperparameters.
        source_name: domain name recorded in the report.
        target_name: domain name recorded in the report.
        fit_cache: optional dict that keeps domain decompositions across
            runs, keyed by (data, k, tau, max_subspaces) where ``data`` is
            the FeatureMatrix itself.  A FeatureMatrix hashes by identity,
            so a fit is reused only for the very object it was fitted on,
            and the key keeps that object alive.  It also keeps the
            read-only (distances, overlap) of recurring fit pairs, keyed by
            (source subspaces, target subspaces); a Subspace is read-only
            and hashes by identity too, so a kept pair is what
            ``distance_matrix`` would form, bit for bit.  A pair is kept
            when either fit is one subspace.  Every fit of a domain and k
            that keeps its whole first round holds the same Subspace
            object, so its overlaps recur from config to config.  A fit of
            two or more subspaces holds later rounds that only it made,
            and one fit key holds one tau, so a pair of two such fits
            belongs to one config and never recurs.  The one other
            one-subspace fit, a round-1 refit whose rest held no two
            distinct samples, is kept though it does not recur: at most one
            overlap per config, one side of rank at most k.  A labelled NA
            run keeps the read-only predictions of both directions, keyed
            by ("na", train, test): they depend on those two FeatureMatrix
            alone.

    Returns:
        AdaptationResult with predictions, report and projected features.
    """
    if source.labels is None:
        raise ConfigError("source domain must carry labels")
    if source.n_features != target.n_features:
        raise DimensionMismatchError(
            f"domains disagree on the feature dimension "
            f"({source.n_features} vs {target.n_features})"
        )
    start = time.perf_counter()
    stage_seconds: dict[str, float] = {}

    classify = nn_classify
    if config.method == "na":
        train, test = source, target
        source_fit = target_fit = matching = None
        if fit_cache is not None and target.labels is not None:
            def classify(train, test):
                key = ("na", train, test)
                if key not in fit_cache:
                    fit_cache[key], fit_cache[("na", test, train)] = nn_classify_both(train, test)
                return fit_cache[key]
    else:
        cache = {} if fit_cache is None else fit_cache

        def fit_domain(data, tau):
            key = (data, config.k, tau, config.max_subspaces)
            if key not in cache:
                cache[key] = fit_multi(data, config.k, tau, config.max_subspaces)
            return cache[key]

        def overlap_of(src_fit, tgt_fit):
            key = (src_fit.subspaces, tgt_fit.subspaces)
            if key in cache:
                return cache[key]
            result = distance_matrix(*key)
            if 1 in (len(src_fit), len(tgt_fit)):
                cache[key] = result
            return result

        src_fit = _run_stage(stage_seconds, "fit_source", fit_domain, source, config.tau_s)
        tgt_fit = _run_stage(stage_seconds, "fit_target", fit_domain, target, config.tau_t)
        distances, overlap = _run_stage(
            stage_seconds, "distance_matrix", overlap_of, src_fit, tgt_fit,
        )
        matching = _run_stage(stage_seconds, "greedy_match", greedy_match, distances)
        source_features, target_features = _run_stage(
            stage_seconds, "align_project", build_features, src_fit, tgt_fit, matching, overlap,
        )
        train = FeatureMatrix(source_features, source.labels)
        test = FeatureMatrix(target_features)
        source_fit, target_fit = FitSummary.of(src_fit), FitSummary.of(tgt_fit)

    prediction = _run_stage(stage_seconds, "classify", classify, train, test)
    accuracy = None
    if target.labels is not None:
        accuracy = evaluate_accuracy(prediction.predictions, target.labels)

    report = AdaptationReport(
        source=source_name,
        target=target_name,
        accuracy=accuracy,
        source_fit=source_fit,
        target_fit=target_fit,
        matching=matching,
        feature_dim=train.n_features,
        config=config,
        wall_time=time.perf_counter() - start,
        stage_seconds=stage_seconds,
    )
    return AdaptationResult(
        prediction=prediction,
        report=report,
        source_features=train.data,
        target_features=test.data,
    )


DEFAULT_GRID_KS = (20, 45, 80)
DEFAULT_GRID_TAUS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def default_grid(n_source: int, n_target: int, n_features: int) -> list[AdaptationConfig]:
    """The default hyperparameter grid for one domain pair.

    Candidate subspace dimensions are clipped to what the pair supports;
    both thresholds sweep the same range independently.
    """
    limit = min(n_source, n_target, n_features)
    ks = [k for k in DEFAULT_GRID_KS if k <= limit] or [limit]
    grid = [AdaptationConfig(k=1, method="na")]
    grid.extend(AdaptationConfig(k=k, method="sa") for k in ks)
    grid.extend(
        AdaptationConfig(k=k, tau_s=ts, tau_t=tt, method="proposed")
        for k in ks
        for ts in DEFAULT_GRID_TAUS
        for tt in DEFAULT_GRID_TAUS
    )
    return grid


@dataclass(frozen=True)
class BenchmarkResult:
    """Best-per-pair reports plus every grid run."""

    best: tuple[AdaptationReport, ...]
    runs: tuple[AdaptationReport, ...]

    def to_dict(self) -> dict:
        return {
            "note": GRID_CAVEAT,
            "best": [r.to_dict() for r in self.best],
            "runs": [r.to_dict() for r in self.runs],
        }


def run_benchmark(
    dataset_dir,
    feature_kind: str,
    grid: list[AdaptationConfig] | None = None,
    normalize: bool | None = None,
) -> BenchmarkResult:
    """Evaluate every ordered domain pair of a dataset directory.

    For each ordered pair of domains found in ``dataset_dir`` the whole grid
    is run and the best accuracy per (pair, method) is reported.  Since the
    target labels drive that selection, the summary carries an explicit
    caveat noting that hyperparameters were tuned on test error.

    Args:
        dataset_dir: directory of per-domain feature and label files.
        feature_kind: feature kind named in the files, e.g. "surf".
        grid: configurations to sweep; defaults to :func:`default_grid` per
            pair.  Entries whose k exceeds what a pair supports are skipped
            for that pair.
        normalize: z-score each domain per dimension; defaults to True for
            "surf" features and False otherwise.

    Returns:
        BenchmarkResult with best-per-pair reports and the full run log.
    """
    domains = io.discover_domains(dataset_dir, feature_kind)
    if len(domains) < 2:
        raise DataFileError(
            f"need at least two domains, found {sorted(domains)}",
            path=dataset_dir,
        )
    if normalize is None:
        normalize = feature_kind.lower() == "surf"

    loaded = {
        name: load_domain(feature_path, label_path, normalize)
        for name, (feature_path, label_path) in domains.items()
    }

    runs: list[AdaptationReport] = []
    best: dict[tuple[str, str, str], AdaptationReport] = {}
    fit_cache: dict = {}
    pairs = list(itertools.permutations(sorted(loaded), 2))
    start = time.perf_counter()
    for pair_index, (src_name, tgt_name) in enumerate(pairs, 1):
        source, target = loaded[src_name], loaded[tgt_name]
        pair_start = len(runs)
        pair_grid = grid
        if pair_grid is None:
            pair_grid = default_grid(source.n_samples, target.n_samples, source.n_features)
        limit = min(source.n_samples, target.n_samples, source.n_features)
        for config in pair_grid:
            if config.method != "na" and config.k > limit:
                continue
            result = adapt(
                source, target, config,
                source_name=src_name, target_name=tgt_name,
                fit_cache=fit_cache,
            )
            report = result.report
            runs.append(report)
            key = (src_name, tgt_name, config.method)
            if key not in best or (report.accuracy or 0.0) > (best[key].accuracy or 0.0):
                best[key] = report
        pair_best = max(runs[pair_start:], key=lambda r: r.accuracy or 0.0, default=None)
        logger.info(
            "pair %d/%d %s -> %s: %d configs done, %.1f s, best %s",
            pair_index, len(pairs), src_name, tgt_name, len(runs),
            time.perf_counter() - start, _describe_best(pair_best),
        )
    return BenchmarkResult(best=tuple(best.values()), runs=tuple(runs))


def _describe_best(report: AdaptationReport | None) -> str:
    """One pair's best run for the progress log: its config and accuracy."""
    if report is None:
        return "none (no config fits this pair)"
    config = report.config
    settings = "" if config.method == "na" else f" k={config.k}"
    if config.method == "proposed":
        settings += (
            f" tau_s={config.tau_s} tau_t={config.tau_t}"
            f" max_subspaces={config.max_subspaces}"
        )
    accuracy = "n/a" if report.accuracy is None else f"{report.accuracy:.2f}"
    return f"{config.method}{settings}, accuracy {accuracy}"


def format_table(result: BenchmarkResult) -> str:
    """Render best-per-pair accuracies as an aligned plain-text table."""
    pairs: list[tuple[str, str]] = []
    methods: list[str] = []
    cell: dict[tuple[str, str, str], float | None] = {}
    for report in result.best:
        pair = (report.source, report.target)
        if pair not in pairs:
            pairs.append(pair)
        if report.config.method not in methods:
            methods.append(report.config.method)
        cell[(report.source, report.target, report.config.method)] = report.accuracy
    methods.sort(key=METHODS.index)

    names = sorted({n for pair in pairs for n in pair})
    initials = {name: name[:1].upper() for name in names}
    short = initials if len(set(initials.values())) == len(names) else {n: n for n in names}

    header = ["pair"] + [m.upper() for m in methods]
    rows = [header]
    sums = {m: [] for m in methods}
    for src, tgt in pairs:
        row = [f"{short[src]}-{short[tgt]}"]
        for m in methods:
            acc = cell.get((src, tgt, m))
            row.append("-" if acc is None else f"{acc:.2f}")
            if acc is not None:
                sums[m].append(acc)
        rows.append(row)
    avg_row = ["Avg"]
    for m in methods:
        avg_row.append(f"{np.mean(sums[m]):.2f}" if sums[m] else "-")
    rows.append(avg_row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        "  ".join(val.rjust(widths[i]) for i, val in enumerate(row))
        for row in rows
    ]
    lines.append("")
    lines.append(f"note: {GRID_CAVEAT}")
    return "\n".join(lines)


def report_to_json(report: AdaptationReport, predictions=None) -> str:
    """Serialise one report (plus optional predictions) as JSON text."""
    payload = report.to_dict()
    if predictions is not None:
        payload["predictions"] = [int(p) for p in predictions]
    return json.dumps(payload, indent=2)
