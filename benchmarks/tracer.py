"""Spans and counters recorded around calls into the program's layers.

The tracer wraps a public function of ``msa`` in the namespace its caller
looks it up in, for example ``msa.pipeline.build_features`` (called by
``adapt``) or ``msa.multifit.fit_pca`` (called by ``fit_multi``).  The program
itself is not edited: :meth:`Tracer.installed` swaps the wrappers in and puts
the original functions back on exit.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import time

LAYERS = (
    "io", "pipeline", "multifit", "subspace",
    "grassmann", "matching", "alignment", "classify",
)


def _shape(data) -> tuple[int, int]:
    """Shape of a FeatureMatrix or an array."""
    return getattr(data, "data", data).shape


def _svd_flops(data) -> float:
    # Economy SVD with U (Golub & Van Loan, R-SVD): 6 m n^2 + 20 n^3.
    m, n = sorted(_shape(data), reverse=True)
    return 6.0 * m * n * n + 20.0 * n ** 3


def _adapt_config(args, kwargs):
    return kwargs["config"] if "config" in kwargs else args[2]


def _count_adapt(tracer, args, kwargs, result):
    tracer.counts["pipeline.adapt.calls"] += 1
    if _adapt_config(args, kwargs).method != "na":
        tracer.counts["pipeline.fit_requests"] += 2


def _count_fit_multi(tracer, args, kwargs, result):
    tracer.counts["multifit.fit_multi.calls"] += 1
    tracer.counts["multifit.subspaces"] += len(result)
    tracer.counts["multifit.tau_escalations"] += result.tau_escalations


def _count_fit_pca(tracer, args, kwargs, result):
    tracer.counts["subspace.fit_pca.calls"] += 1
    tracer.counts["subspace.fit_pca.flops"] += _svd_flops(args[0])


def _count_errors(tracer, args, kwargs, result):
    tracer.counts["subspace.reconstruction_errors.rows"] += _shape(args[0])[0]


def _count_distances(tracer, args, kwargs, result):
    tracer.counts["grassmann.pairs_scored"] += len(args[0]) * len(args[1])


def _count_features(tracer, args, kwargs, result):
    width = result[0].shape[1]
    tracer.counts["alignment.build_features.calls"] += 1
    tracer.counts["alignment.shared_dim_sum"] += width
    if tracer.adapt_config is not None and width < tracer.adapt_config.k:
        tracer.counts["alignment.collapsed_configs"] += 1


def _count_classify(tracer, args, kwargs, result):
    train, test = args[0], args[1]
    cells = train.n_samples * test.n_samples
    tracer.counts["classify.distance_flops"] += cells * train.n_features
    tracer.maxima["classify.max_matrix_mb"] = max(
        tracer.maxima.get("classify.max_matrix_mb", 0.0), cells * 8 / 1e6
    )


def _count_load(tracer, args, kwargs, result):
    tracer.counts["io.bytes_read"] += os.path.getsize(args[0])


def wrap_points(msa):
    """(namespace, attribute, span name, counter) for every traced call."""
    io, pipeline, multifit = msa.io, msa.pipeline, msa.multifit
    return [
        (io, "discover_domains", "io.discover_domains", None),
        (io, "load_features", "io.load_features", _count_load),
        (io, "load_labels", "io.load_labels", None),
        (pipeline, "run_benchmark", "pipeline.run_benchmark", None),
        (pipeline, "zscore", "pipeline.zscore", None),
        (pipeline, "adapt", "pipeline.adapt", _count_adapt),
        (pipeline, "fit_multi", "multifit.fit_multi", _count_fit_multi),
        (pipeline, "distance_matrix", "grassmann.distance_matrix", _count_distances),
        (pipeline, "greedy_match", "matching.greedy_match", None),
        (pipeline, "build_features", "alignment.build_features", _count_features),
        (pipeline, "nn_classify", "classify.nn_classify", _count_classify),
        (pipeline, "evaluate_accuracy", "classify.evaluate_accuracy", None),
        (multifit, "fit_pca", "subspace.fit_pca", _count_fit_pca),
        (multifit, "reconstruction_errors", "subspace.reconstruction_errors", _count_errors),
    ]


class Tracer:
    """In-memory spans plus counters, kept until :meth:`dump`.

    A span is ``[name, start, end, parent, call]``: ``parent`` is the index
    of the enclosing span or -1, and ``call`` numbers the ``adapt`` call the
    span belongs to (-1 outside any).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.maxima: dict[str, float] = {}
        self.adapt_config = None
        self._stack: list[int] = []
        self._calls = 0

    def wrap(self, name, fn, counter=None):
        is_adapt = name == "pipeline.adapt"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            call = self.spans[parent][4] if parent >= 0 else -1
            outer_config = self.adapt_config
            if is_adapt:
                call = self._calls
                self._calls += 1
                self.adapt_config = _adapt_config(args, kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, call]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.adapt_config = outer_config
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, msa):
        """Swap the wrappers into the program's namespaces for the block."""
        originals = []
        try:
            for namespace, attr, name, counter in wrap_points(msa):
                fn = getattr(namespace, attr)
                originals.append((namespace, attr, fn))
                setattr(namespace, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for namespace, attr, fn in reversed(originals):
                setattr(namespace, attr, fn)

    def times(self) -> tuple[dict, dict]:
        """Inclusive seconds per span name and self seconds per span name."""
        inclusive: dict[str, float] = collections.defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = collections.defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return dict(inclusive), dict(own)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "call"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "maxima": self.maxima,
                },
                fh,
            )
