"""Symmetries of the whole pipeline on small generated domains (hypothesis).

Each example draws two domains that are unions of one to three random
planes in R^d (d 4-12, 12-60 rows a side, 3 classes), the target's rows
turned by a random rotation, and one config of NA, SA or the proposed
method (k 1-3, tau_s and tau_t in {0.1, 0.2, 0.3, 0.5}).  Predictions must
follow the problem's symmetries exactly:
* both domains times a power of two change no prediction, since the
  scaling is exact;
* permuting the class ids permutes the predictions alike, since no step
  reads a label's value;
* for NA, permuting the source rows changes no prediction and permuting the
  target rows permutes the predictions alike.
Row permutations for SA and the proposed method stay with the planted loops
in test_pipeline: the Gram matrices of permuted rows round differently, which
can turn a near tie of the fit or of 1-NN.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from msa.pipeline import AdaptationConfig, adapt
from msa.subspace import FeatureMatrix
from msa.synthetic import random_orthogonal

TAUS = (0.1, 0.2, 0.3, 0.5)


def _domain(rng, frames, offsets, centres, n):
    """n labelled rows on the planes ``frames`` (p, d, 2), each row on a
    random plane around its class's centre there, with a little noise."""
    plane = rng.integers(0, len(frames), n)
    labels = rng.integers(0, 3, n)
    coef = centres[plane, labels] + 0.3 * rng.normal(size=(n, 2))
    x = np.einsum("ndr,nr->nd", frames[plane], coef) + offsets[plane]
    return x + 0.01 * rng.normal(size=x.shape), labels


@st.composite
def _problems(draw, methods=("na", "sa", "proposed")):
    """(source, target, config) drawn as the module docstring says."""
    d = draw(st.integers(4, 12))
    n_s, n_t = draw(st.integers(12, 60)), draw(st.integers(12, 60))
    planes = draw(st.integers(1, 3))
    config = AdaptationConfig(
        k=draw(st.integers(1, 3)),
        tau_s=draw(st.sampled_from(TAUS)),
        tau_t=draw(st.sampled_from(TAUS)),
        method=draw(st.sampled_from(methods)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = np.stack([random_orthogonal(rng, d)[:, :2] for _ in range(planes)])
    offsets = rng.normal(size=(planes, d))
    centres = 2.0 * rng.normal(size=(planes, 3, 2))
    xs, ys = _domain(rng, frames, offsets, centres, n_s)
    xt, yt = _domain(rng, frames, offsets, centres, n_t)
    xt = xt @ random_orthogonal(rng, d)
    return FeatureMatrix(xs, ys), FeatureMatrix(xt, yt), config


def _predictions(source, target, config):
    return adapt(source, target, config).prediction.predictions


@settings(max_examples=150, deadline=None)
@given(problem=_problems())
def test_power_of_two_scale_keeps_predictions(problem):
    source, target, config = problem
    base = _predictions(source, target, config)
    for j in (-7, 3, 40):
        scale = 2.0**j
        moved = _predictions(
            FeatureMatrix(source.data * scale, source.labels),
            FeatureMatrix(target.data * scale, target.labels),
            config,
        )
        assert np.array_equal(moved, base), j


@settings(max_examples=150, deadline=None)
@given(problem=_problems(), ids=st.permutations(range(3)))
def test_class_relabelling_relabels_predictions(problem, ids):
    source, target, config = problem
    ids = np.array(ids)
    base = adapt(source, target, config)
    moved = adapt(
        FeatureMatrix(source.data, ids[source.labels]),
        FeatureMatrix(target.data, ids[target.labels]),
        config,
    )
    assert np.array_equal(moved.prediction.predictions, ids[base.prediction.predictions])
    assert moved.report.accuracy == base.report.accuracy


@settings(max_examples=150, deadline=None)
@given(problem=_problems(methods=("na",)), seed=st.integers(0, 2**32 - 1))
def test_na_row_permutations(problem, seed):
    source, target, config = problem
    rng = np.random.default_rng(seed)
    base = _predictions(source, target, config)
    perm = rng.permutation(source.n_samples)
    moved = _predictions(FeatureMatrix(source.data[perm], source.labels[perm]), target, config)
    assert np.array_equal(moved, base)
    perm = rng.permutation(target.n_samples)
    moved = _predictions(source, FeatureMatrix(target.data[perm], target.labels[perm]), config)
    assert np.array_equal(moved, base[perm])
