"""Correctness checks of the program's outputs against independent references.

Nothing here calls into ``msa``: the references recompute 1-NN, z-scoring and
classical subspace alignment with plain numpy, so a fault in the program
cannot hide in the reference.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

# A prediction that is not the label of the reference's nearest source row
# still passes when some source row carrying the predicted label is no
# farther than the nearest one by more than RTOL times the squared norms
# involved.  This admits near-ties, which different but correct evaluation
# orders may break differently, and nothing else.
RTOL = 1e-8

# Test rows handled per block by the brute-force 1-NN, to bound memory.
BLOCK = 512


def zscore(x: np.ndarray) -> np.ndarray:
    """Per-dimension zero mean and unit deviation; constant columns unscaled."""
    std = x.std(axis=0)
    return (x - x.mean(axis=0)) / np.where(std > 0.0, std, 1.0)


def nn_mismatches(train, train_labels, test, predictions) -> int:
    """Count predictions that are not the label of a nearest training row.

    Distances are brute-force squared Euclidean; near-ties within ``RTOL``
    are accepted, and a label absent from ``train_labels`` always counts.
    """
    train = np.asarray(train, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    predictions = np.asarray(predictions)
    classes = np.unique(train_labels)
    known = np.isin(predictions, classes)
    bad = int(np.count_nonzero(~known))
    sq_train = np.einsum("ij,ij->i", train, train)
    scale_train = sq_train.max()
    for lo in range(0, test.shape[0], BLOCK):
        block = test[lo:lo + BLOCK]
        pred = predictions[lo:lo + BLOCK]
        ok = known[lo:lo + BLOCK]
        sq_test = np.einsum("ij,ij->i", block, block)
        dist = sq_test[:, None] + sq_train[None, :] - 2.0 * block @ train.T
        per_class = np.stack(
            [dist[:, train_labels == c].min(axis=1) for c in classes], axis=1
        )
        nearest = per_class.min(axis=1)
        rows = np.flatnonzero(ok)
        chosen = per_class[rows, np.searchsorted(classes, pred[rows])]
        tol = RTOL * (sq_test[rows] + scale_train)
        bad += int(np.count_nonzero(chosen > nearest[rows] + tol))
    return bad


class Domain:
    """One domain's independently parsed rows and labels.

    ``basis(k)`` gives the mean and the top-k covariance eigenvectors (d, k),
    from the d x d scatter matrix when d <= N and from its N x N dual
    otherwise; both give the same eigenvectors.  The eigendecomposition is
    computed once and shared by every k.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x, y
        self._eig = None

    def basis(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            mean = self.x.mean(axis=0)
            xc = self.x - mean
            primal = xc.shape[1] <= xc.shape[0]
            vals, vecs = np.linalg.eigh(xc.T @ xc if primal else xc @ xc.T)
            self._eig = (mean, xc, primal, vals[::-1], vecs[:, ::-1])
        mean, xc, primal, vals, vecs = self._eig
        if primal:
            return mean, vecs[:, :k]
        return mean, xc.T @ (vecs[:, :k] / np.sqrt(vals[:k]))


def sa_features(source: Domain, target: Domain, k: int):
    """Classical subspace alignment: (Xs - ms) Bs Bs^T Bt against (Xt - mt) Bt."""
    (ms, bs), (mt, bt) = source.basis(k), target.basis(k)
    return (source.x - ms) @ bs @ (bs.T @ bt), (target.x - mt) @ bt


def check_result(result, config, src: Domain, tgt: Domain, expected_accuracy=None) -> list[str]:
    """Check one ``adapt`` result against the references and its invariants."""
    failures = []
    report = result.report
    pred = np.asarray(result.prediction.predictions)
    ns, nt = src.x.shape[0], tgt.x.shape[0]
    fs, ft = result.source_features, result.target_features

    if expected_accuracy is not None and report.accuracy != expected_accuracy:
        failures.append(
            f"accuracy {report.accuracy} differs from the grid's {expected_accuracy}"
        )
    if pred.shape != (nt,):
        return failures + [f"{pred.shape} predictions for {nt} target rows"]
    truth = 100.0 * float(np.mean(pred == tgt.y))
    if report.accuracy is None or abs(report.accuracy - truth) > 1e-9:
        failures.append(f"reported accuracy {report.accuracy}, ground truth gives {truth}")
    if not np.isin(pred, src.y).all():
        failures.append("a prediction is not a source label")
    width = fs.shape[1] if fs.ndim == 2 else -1
    if fs.shape != (ns, width) or ft.shape != (nt, width):
        failures.append(f"feature shapes {fs.shape} and {ft.shape} disagree")

    method = config.method
    counts = (report.num_src_subspaces, report.num_tgt_subspaces)
    if method == "na":
        want_width, want_counts = src.x.shape[1], (0, 0)
    elif method == "sa":
        want_width, want_counts = config.k, (1, 1)
    else:
        want_width, want_counts = None, None
    if want_width is not None and width != want_width:
        failures.append(f"shared dimension {width}, expected {want_width}")
    if want_width is None and not 1 <= width <= config.k:
        failures.append(f"shared dimension {width} outside 1..{config.k}")
    if want_counts is not None and counts != want_counts:
        failures.append(f"subspace counts {counts}, expected {want_counts}")
    if want_counts is None and not all(1 <= c <= config.max_subspaces for c in counts):
        failures.append(f"subspace counts {counts} outside 1..{config.max_subspaces}")

    if method == "na":
        bad = nn_mismatches(src.x, src.y, tgt.x, pred)
        what = "brute-force 1-NN on raw features"
    elif method == "sa":
        fs_ref, ft_ref = sa_features(src, tgt, config.k)
        bad = nn_mismatches(fs_ref, src.y, ft_ref, pred)
        what = "classical subspace alignment"
    else:
        bad = nn_mismatches(fs, src.y, ft, pred) if fs.shape[1:] == ft.shape[1:] else 0
        what = "1-NN in the returned shared features"
    if bad:
        failures.append(f"{bad} predictions disagree with {what}")
    return failures


def check_grid_gain(runs) -> list[str]:
    """Best-of-grid SA and proposed, averaged over pairs, beat NA."""
    best: dict = {}
    for report in runs:
        key = (report.source, report.target, report.config.method)
        best[key] = max(best.get(key, -1.0), report.accuracy)
    means = {
        method: np.mean([v for (s, t, m), v in best.items() if m == method])
        for method in ("na", "sa", "proposed")
    }
    return [
        f"mean best {method} accuracy {means[method]:.2f} does not beat NA's {means['na']:.2f}"
        for method in ("sa", "proposed")
        if not means[method] > means["na"]
    ]
