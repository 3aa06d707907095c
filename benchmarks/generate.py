"""Seeded generator of the benchmark's input domains.

    python3 benchmarks/generate.py --workload surf-grid --seed 0 --out DIR

writes one feature file and one label file per domain into DIR, in the
formats ``msa.io`` reads (see the package README), named
``<domain>_<kind>.<csv|bin>`` and ``<domain>_<kind>.labels``.

Every domain is drawn from one model with ten classes:

* Union of subspaces.  The latent space is a direct sum of ``groups``
  orthogonal blocks of ``rank`` dimensions.  Each sample lies in one block,
  chosen at random; the energy of block g is ``decay**g`` times that of
  block 0, so the greedy decomposition peels the blocks off in order and
  each tau of the sweep yields a stable number of subspaces.
* Class signal.  A sample's coefficients in its block are a per-(block,
  class) offset plus unit Gaussian spread.
* Per-domain low-rank shift.  Each domain embeds the latent space into R^d
  with ``SHIFT_RANK`` latent directions rotated by 30 to 45 degrees toward
  directions of its own, so the domains' principal subspaces differ by a
  rotation that subspace alignment undoes.
* Per-domain nuisance.  ``NUISANCE_RANK`` strong directions of each domain's
  own, orthogonal to everything else.  Raw 1-NN (NA) pays for them; after
  alignment, the source's nuisance has no component in the target subspace.
* Isotropic noise of total energy ``NOISE_ENERGY``; DeCAF-like domains are
  then shifted by a per-dimension offset and clipped at zero.

The structure (frames, blocks, class offsets, rotations, offsets) comes from
the fixed ``STRUCTURE_SEED``, so every seed has the same geometry; ``seed``
draws the samples and the labels, each domain from streams of its own.
"""

from __future__ import annotations

import argparse
import struct
from pathlib import Path

import numpy as np

OFFICE_CALTECH = {"amazon": 958, "caltech": 1123, "dslr": 157, "webcam": 295}

WORKLOADS = {
    "surf-grid": {
        "sizes": OFFICE_CALTECH, "d": 800, "kind": "surf", "fmt": "csv",
        "groups": 4, "rank": 10, "nuisance": 2.0,
    },
    "decaf-grid": {
        "sizes": OFFICE_CALTECH, "d": 4096, "kind": "decaf", "fmt": "bin",
        "groups": 6, "rank": 20, "nuisance": 1.0,
    },
    "adapt-tall": {
        "sizes": {"source": 2400, "target": 2000}, "d": 100, "kind": "tall", "fmt": "csv",
        "groups": 4, "rank": 10, "nuisance": 2.0,
    },
}

N_CLASSES = 10
DECAY = 0.8
SHIFT_RANK = 8
SHIFT_DEGREES = (30, 45)
NUISANCE_RANK = 4
NOISE_ENERGY = 4.0
DECAF_OFFSET = (0.05, 0.15)
STRUCTURE_SEED = 1811


def _orthonormal(rng, n, r):
    q, rm = np.linalg.qr(rng.standard_normal((n, r)))
    return q * np.sign(np.diag(rm))


def labels(workload: str, seed: int) -> dict[str, np.ndarray]:
    """Ground-truth labels per domain, from a stream of their own."""
    return {
        name: np.random.default_rng([seed, i, 1]).integers(0, N_CLASSES, n)
        for i, (name, n) in enumerate(WORKLOADS[workload]["sizes"].items())
    }


def domains(workload: str, seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Features and labels of every domain of a workload."""
    spec = WORKLOADS[workload]
    d, groups, rank = spec["d"], spec["groups"], spec["rank"]
    latent = groups * rank
    own = SHIFT_RANK + NUISANCE_RANK
    srng = np.random.default_rng(STRUCTURE_SEED)
    frame = _orthonormal(srng, d, latent + own * len(spec["sizes"]))
    base = frame[:, :latent]
    offsets = srng.standard_normal((groups, N_CLASSES, rank))
    scales = np.linspace(1.1, 0.9, rank) * DECAY ** np.arange(groups)[:, None]
    out = {}
    for i, (name, y) in enumerate(labels(workload, seed).items()):
        n = y.shape[0]
        fresh = frame[:, latent + own * i:][:, :SHIFT_RANK]
        nuisance = frame[:, latent + own * i:][:, SHIFT_RANK:own]
        theta = np.deg2rad(srng.uniform(*SHIFT_DEGREES))
        rotated = srng.choice(latent, SHIFT_RANK, replace=False)
        embed = base.copy()
        embed[:, rotated] = np.cos(theta) * base[:, rotated] + np.sin(theta) * fresh

        rng = np.random.default_rng([seed, i, 2])
        g = rng.integers(0, groups, n)
        z = (offsets[g, y] + rng.standard_normal((n, rank))) * scales[g]
        coords = np.zeros((n, latent))
        for block in range(groups):
            coords[g == block, block * rank:(block + 1) * rank] = z[g == block]
        x = coords @ embed.T
        x += rng.standard_normal((n, NUISANCE_RANK)) * spec["nuisance"] @ nuisance.T
        x += rng.standard_normal((n, d)) * np.sqrt(NOISE_ENERGY / d)
        if spec["kind"] == "decaf":
            low, spread = DECAF_OFFSET
            x = np.maximum(x + low + spread * srng.random(d), 0.0)
        out[name] = (x, y)
    return out


def write(workload: str, seed: int, out: Path) -> None:
    """Write every domain of a workload into the directory ``out``."""
    spec = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    for name, (x, y) in domains(workload, seed).items():
        stem = out / f"{name}_{spec['kind']}"
        if spec["fmt"] == "csv":
            np.savetxt(stem.with_suffix(".csv"), x, delimiter=",", fmt="%.9g")
        else:
            with open(stem.with_suffix(".bin"), "wb") as fh:
                fh.write(struct.pack("<4sII", b"MSA1", *x.shape))
                fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
        np.savetxt(stem.with_suffix(".labels"), y, fmt="%d")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
