"""What a fresh interpreter loads: numpy alone until a 1-NN near tie.

Each test runs its snippet in a new ``sys.executable`` process, since this
test process has long since imported scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import msa

SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _run(code: str):
    """Run ``code`` in a fresh interpreter that finds this msa; return the
    JSON it prints last."""
    env = dict(os.environ)
    package_root = str(Path(msa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["msa", "msa.cli"])
def test_import_loads_no_scipy(module):
    loaded = _run(f"""
        import json, sys
        import {module}
        print(json.dumps({SCIPY_LOADED}))
    """)
    assert loaded == []


def test_adapt_without_near_tie_loads_no_scipy():
    """Planted seed 0 has no near tie under any method (see test_classify)."""
    result = _run(f"""
        import json, sys
        from msa import AdaptationConfig, adapt, planted_benchmark
        src, tgt, _ = planted_benchmark(seed=0)
        accuracy = [
            adapt(src, tgt, AdaptationConfig(k=2, method=method)).report.accuracy
            for method in ("na", "sa", "proposed")
        ]
        print(json.dumps({{"accuracy": accuracy, "scipy": {SCIPY_LOADED}}}))
    """)
    assert len(result["accuracy"]) == 3
    assert result["scipy"] == []


def test_fitting_loads_no_numpy_ma():
    """A subspace collection checks its assignment without np.unique, which
    imports numpy.ma (about 15 ms)."""
    loaded = _run("""
        import json, sys
        from msa import AdaptationConfig, adapt, planted_benchmark
        src, tgt, _ = planted_benchmark(seed=0)
        adapt(src, tgt, AdaptationConfig(k=2, tau_s=0.3, tau_t=0.3))
        print(json.dumps([m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")]))
    """)
    assert loaded == []


def test_near_tie_imports_cdist_and_returns_its_argmin():
    """Duplicate training rows with different labels tie exactly; the lowest
    training index wins, as in cdist's argmin."""
    result = _run("""
        import json, sys
        import numpy as np
        from msa.classify import nn_classify
        from msa.subspace import FeatureMatrix
        base = np.array([[0.0, 1.0], [2.0, -1.0], [3.0, 3.0]])
        train = np.vstack([base, base])
        test = np.vstack([base, [[1.0, 0.1]]])
        before = "scipy.spatial.distance" in sys.modules
        labels = nn_classify(FeatureMatrix(train, np.arange(6)), FeatureMatrix(test))
        after = "scipy.spatial.distance" in sys.modules
        from scipy.spatial.distance import cdist
        reference = cdist(test, train, "sqeuclidean").argmin(axis=1)
        print(json.dumps({
            "before": before, "after": after,
            "labels": labels.predictions.tolist(), "reference": reference.tolist(),
        }))
    """)
    assert not result["before"] and result["after"]
    assert result["labels"] == result["reference"] == [0, 1, 2, 0]
