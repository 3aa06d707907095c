"""The benchmark's checks accept the program's outputs and reject corrupted ones."""

import dataclasses

import numpy as np
import pytest

import checks
from msa import AdaptationConfig, PredictionResult, adapt, planted_benchmark

CONFIGS = [
    AdaptationConfig(k=1, method="na"),
    AdaptationConfig(k=2, tau_s=1.0, tau_t=1.0, method="sa"),
    AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3),
]


@pytest.fixture(scope="module")
def pair():
    source, target, _ = planted_benchmark(seed=0)
    return source, target, checks.Domain(source.data, source.labels), checks.Domain(target.data, target.labels)


def corrupt(result, rows, truth):
    """Move the given predictions to another source label, keeping the
    reported accuracy consistent with the corrupted predictions."""
    pred = np.array(result.prediction.predictions)
    pred[rows] = 1 - pred[rows]
    accuracy = 100.0 * float(np.mean(pred == truth))
    report = dataclasses.replace(result.report, accuracy=accuracy)
    return dataclasses.replace(result, prediction=PredictionResult(pred), report=report)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.method)
def test_program_outputs_pass(pair, config):
    source, target, src, tgt = pair
    result = adapt(source, target, config)
    assert checks.check_result(result, config, src, tgt, result.report.accuracy) == []


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.method)
def test_corrupted_predictions_fail(pair, config):
    source, target, src, tgt = pair
    result = adapt(source, target, config)
    bad = corrupt(result, [0, 5, 17], target.labels)
    failures = checks.check_result(bad, config, src, tgt)
    assert any("disagree" in f for f in failures), failures
    # The grid reported the uncorrupted accuracy, which the re-run must match.
    assert checks.check_result(bad, config, src, tgt, result.report.accuracy)


def test_foreign_label_fails(pair):
    source, target, src, tgt = pair
    config = CONFIGS[0]
    result = adapt(source, target, config)
    pred = np.array(result.prediction.predictions)
    pred[3] = 7
    bad = dataclasses.replace(result, prediction=PredictionResult(pred))
    assert any("not a source label" in f for f in checks.check_result(bad, config, src, tgt))


def test_near_ties_are_accepted():
    train = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    labels = np.array([0, 1, 2])
    test = np.array([[0.1, 0.0]])
    assert checks.nn_mismatches(train, labels, test, [0]) == 0
    assert checks.nn_mismatches(train, labels, test, [1]) == 0
    assert checks.nn_mismatches(train, labels, test, [2]) == 1


def test_grid_gain_fails_when_na_wins(pair):
    source, target, _, _ = pair
    reports = [adapt(source, target, c).report for c in CONFIGS]
    na = dataclasses.replace(reports[0], accuracy=100.0)
    assert len(checks.check_grid_gain([na] + reports[1:])) == 2
