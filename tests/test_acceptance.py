"""Acceptance gate for the package.

Each test covers one shipped guarantee and prints a single verdict line of
the form ``criterion N [label]: PASS`` (or FAIL / WAIVED) regardless of
output capture.  Run with plain ``pytest``; the real-dataset reproduction
is waived when no dataset directory is available, see criterion 4.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from msa.classify import nn_classify
from msa.grassmann import distance_matrix
from msa.io import discover_domains
from msa.multifit import fit_multi
from msa.pipeline import AdaptationConfig, adapt, run_benchmark
from msa.subspace import FeatureMatrix, Subspace, fit_pca, reconstruction_errors
from msa.synthetic import planted_benchmark

from conftest import random_orthonormal, span, total_reconstruction_error

DATA_DIR = Path(os.environ.get("MSA_DATA_DIR", "data"))


@pytest.fixture
def verdict(capsys):
    @contextmanager
    def run(number, label):
        status = "FAIL"
        try:
            yield
            status = "PASS"
        except pytest.skip.Exception:
            status = "WAIVED (dataset not found)"
            raise
        finally:
            with capsys.disabled():
                print(f"criterion {number} [{label}]: {status}")

    return run


def test_criterion_1_invariants_and_oracles(verdict):
    """Metric invariants and optimality oracles for every numeric kernel."""
    with verdict(1, "invariants and oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)

        # distance: symmetry, bounds, shared-rotation invariance
        for _ in range(200):
            d = int(rng.integers(2, 9))
            r1 = int(rng.integers(1, d + 1))
            r2 = int(rng.integers(1, d + 1))
            a = span(random_orthonormal(rng, d, r1))
            b = span(random_orthonormal(rng, d, r2))
            ab = distance_matrix((a,), (b,))[0][0, 0]
            ba = distance_matrix((b,), (a,))[0][0, 0]
            # compare squared distances: sqrt is ill-conditioned at zero
            assert abs(ab**2 - ba**2) <= 1e-10
            assert abs(ab - ba) <= 1e-7
            assert 0.0 <= ab <= np.sqrt(max(r1, r2)) + 1e-12
            q = random_orthonormal(rng, d, d)
            rotated = distance_matrix(
                (span(q @ a.basis),), (span(q @ b.basis),)
            )[0][0, 0]
            assert abs(rotated**2 - ab**2) <= 1e-8
            assert abs(rotated - ab) <= 1e-7

        # subspace fit: no random frame reconstructs the data better
        for _ in range(20):
            n = int(rng.integers(4, 11))
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(2, d) + 1))
            X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
            sub = fit_pca(X, k)
            best = total_reconstruction_error(X, sub)
            mean = X.mean(axis=0)
            for _ in range(200):
                frame = random_orthonormal(rng, d, sub.rank)
                rival = total_reconstruction_error(X, Subspace(frame, mean))
                assert best <= rival + 1e-9

        # alignment: the closed-form transform beats 500 random transforms
        for _ in range(5):
            bs = random_orthonormal(rng, 8, 3)
            bt = random_orthonormal(rng, 8, 3)
            transform = distance_matrix((span(bs),), (span(bt),))[1]
            best = np.linalg.norm(bs @ transform - bt)
            for _ in range(500):
                alt = rng.normal(size=(3, 3)) * rng.uniform(0.2, 2.0)
                assert best <= np.linalg.norm(bs @ alt - bt) + 1e-9

        # decomposition: terminates, covers every sample, honours the threshold
        for _ in range(50):
            n = int(rng.integers(5, 80))
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, min(n - 1, d) + 1))
            tau = float(rng.uniform(0.05, 1.0))
            max_subspaces = int(rng.integers(1, 8))
            X = rng.normal(size=(n, d))
            fit = fit_multi(X, k=k, tau=tau, max_subspaces=max_subspaces)
            assert len(fit) <= max_subspaces
            assert set(np.unique(fit.assignment)) == set(range(len(fit)))
            if fit.tau_escalations == 0:
                # every non-final subspace reconstructs its members below tau
                for i, sub in enumerate(fit.subspaces[:-1]):
                    members = X[fit.assignment == i]
                    errs, _ = reconstruction_errors(members, sub)
                    assert np.all(errs < tau)

        # classification: agrees with a brute-force nearest neighbour
        for _ in range(20):
            n_train = int(rng.integers(1, 40))
            n_test = int(rng.integers(1, 30))
            d = int(rng.integers(1, 8))
            train = rng.normal(size=(n_train, d))
            labels = rng.integers(0, 4, size=n_train)
            test = rng.normal(size=(n_test, d))
            got = nn_classify(FeatureMatrix(train, labels), FeatureMatrix(test))
            for i in range(n_test):
                dists = np.sum((train - test[i]) ** 2, axis=1)
                assert got.predictions[i] == labels[int(np.argmin(dists))]

        assert time.perf_counter() - start < 30.0


def test_criterion_2_planted_recovery_and_gain(verdict):
    """Planted planes are recovered and adaptation beats raw features."""
    with verdict(2, "planted recovery and gain"):
        start = time.perf_counter()
        proposed, baseline = [], []
        for seed in range(10):
            src, tgt, info = planted_benchmark(seed=seed)
            for fm, planes in (
                (src, info["source_planes"]),
                (tgt, info["target_planes"]),
            ):
                fit = fit_multi(fm, k=2, tau=0.3)
                assert len(fit) == 2
                for sub in fit.subspaces:
                    angle = min(
                        np.degrees(subspace_angles(sub.basis, plane)).max()
                        for plane in planes
                    )
                    assert angle < 5.0
            cfg = AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3)
            proposed.append(adapt(src, tgt, cfg).report.accuracy)
            baseline.append(
                adapt(src, tgt, AdaptationConfig(k=2, method="na")).report.accuracy
            )
        assert np.mean(proposed) >= np.mean(baseline) + 15.0
        assert time.perf_counter() - start < 10.0


def test_criterion_3_single_subspace_equivalence(verdict):
    """Thresholds of 1.0 reproduce the single-subspace path bit for bit."""
    with verdict(3, "single-subspace equivalence"):
        for seed in (0, 1, 2):
            src, tgt, _ = planted_benchmark(seed=seed)
            forced = adapt(
                src, tgt,
                AdaptationConfig(k=2, tau_s=1.0, tau_t=1.0, method="proposed"),
            )
            single = adapt(src, tgt, AdaptationConfig(k=2, method="sa"))
            assert np.array_equal(
                forced.prediction.predictions, single.prediction.predictions
            )
            assert np.array_equal(forced.source_features, single.source_features)
            assert np.array_equal(forced.target_features, single.target_features)
            assert forced.report.num_src_subspaces == 1
            assert forced.report.num_tgt_subspaces == 1


def _best_proposed(result):
    table = {}
    for report in result.best:
        if report.config.method == "proposed":
            key = (report.source[0].upper(), report.target[0].upper())
            table[key] = report.accuracy
    return table


def test_criterion_4_benchmark_reproduction(verdict):
    """Published-scale accuracy on the four-domain object recognition set.

    Needs the dataset directory (MSA_DATA_DIR, default ./data) populated
    with <domain>_surf and <domain>_decaf feature and label files for the
    amazon, caltech, dslr and webcam domains.  Waived when absent.
    """
    with verdict(4, "benchmark reproduction"):
        kinds = {}
        for kind in ("surf", "decaf"):
            try:
                kinds[kind] = discover_domains(DATA_DIR, kind)
            except Exception:
                pytest.skip(
                    f"no {kind} feature files under {DATA_DIR}; "
                    "set MSA_DATA_DIR to run the reproduction"
                )
            if len(kinds[kind]) < 4:
                pytest.skip(
                    f"expected 4 domains for {kind} under {DATA_DIR}, "
                    f"found {sorted(kinds[kind])}"
                )

        surf = _best_proposed(run_benchmark(DATA_DIR, "surf"))
        assert abs(np.mean(list(surf.values())) - 51.24) <= 2.5
        assert abs(surf[("C", "A")] - 57.09) <= 3.0

        decaf = _best_proposed(run_benchmark(DATA_DIR, "decaf"))
        assert abs(np.mean(list(decaf.values())) - 82.98) <= 1.5
        assert decaf[("W", "D")] == 100.0


def test_criterion_5_consistency_over_seeds(verdict):
    """Multi-subspace matches or beats single-subspace on 8 of 10 seeds."""
    with verdict(5, "multi- vs single-subspace consistency"):
        wins = 0
        for seed in range(10):
            src, tgt, _ = planted_benchmark(seed=seed)
            multi = adapt(
                src, tgt, AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3)
            ).report.accuracy
            single = adapt(src, tgt, AdaptationConfig(k=2, method="sa")).report.accuracy
            if multi >= single:
                wins += 1
        assert wins >= 8
