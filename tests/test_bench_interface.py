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
from msa import AdaptationConfig, FeatureMatrix, planted_benchmark  # noqa: E402


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


def test_whole_domain_fits_are_traced_once():
    """A second adapt on the same domains at another tau runs, and counts,
    only refits: the whole-domain SVDs are the ones the first call made."""
    source, target, _ = planted_benchmark(seed=0)
    fresh = FeatureMatrix(source.data, source.labels), FeatureMatrix(target.data)

    def traced_fits(src, tgt, tau):
        trace = tracer.Tracer()
        with trace.installed(msa):
            msa.pipeline.adapt(src, tgt, AdaptationConfig(k=2, tau_s=tau, tau_t=tau))
        return trace.counts["subspace.fit_pca.calls"], trace.counts["subspace.fit_pca.flops"]

    traced_fits(source, target, 0.3)
    warm_calls, warm_flops = traced_fits(source, target, 0.5)
    cold_calls, cold_flops = traced_fits(*fresh, 0.5)
    assert 0 < warm_calls == cold_calls - 2
    whole = tracer._svd_flops(source) + tracer._svd_flops(target)
    assert warm_flops == cold_flops - whole
