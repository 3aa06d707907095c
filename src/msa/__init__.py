"""Unsupervised domain adaptation by aligning unions of low-rank subspaces.

Each domain is decomposed into a union of PCA subspaces by greedily peeling
off samples a fitted subspace reconstructs well, subspaces are matched
across domains by their Grassmann directional distance, every matched pair
is aligned in closed form, and target samples are classified by a nearest
neighbour in the shared coordinates.

The top level holds what a caller of one adaptation needs; each layer
(``subspace``, ``multifit``, ``grassmann``, ``matching``, ``alignment``,
``classify``, ``pipeline``, ``io``) is imported from its own module.
"""

from .classify import PredictionResult
from .exceptions import DataFileError
from .pipeline import AdaptationConfig, adapt
from .subspace import FeatureMatrix
from .synthetic import planted_benchmark

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "DataFileError",
    "FeatureMatrix",
    "PredictionResult",
    "adapt",
    "planted_benchmark",
]
