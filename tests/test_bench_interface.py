"""The names the benchmark tracer wraps still exist and still get called.

``benchmarks/tracer.py`` swaps wrappers into the program's namespaces by
attribute name; a renamed or moved function would make ``--trace 1`` fail
or count nothing.  This runs the tracer over one planted adaptation.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import msa  # noqa: E402
import tracer  # noqa: E402
from msa import AdaptationConfig, planted_benchmark  # noqa: E402


def test_every_wrap_point_resolves():
    for namespace, attr, name, _ in tracer.wrap_points(msa):
        assert callable(getattr(namespace, attr)), name


def test_traced_adapt_counts_each_layer():
    source, target, _ = planted_benchmark(seed=0)
    trace = tracer.Tracer()
    original = msa.pipeline.adapt
    with trace.installed(msa):
        result = msa.pipeline.adapt(source, target, AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3))
    assert msa.pipeline.adapt is original
    counts = trace.counts
    assert counts["pipeline.adapt.calls"] == 1
    assert counts["multifit.fit_multi.calls"] == 2
    assert counts["alignment.build_features.calls"] == 1
    r = result.source_features.shape[1]
    assert counts["classify.distance_flops"] == source.n_samples * target.n_samples * r
