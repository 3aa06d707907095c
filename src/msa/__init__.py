"""Unsupervised domain adaptation by aligning unions of low-rank subspaces.

Each domain is decomposed into a union of PCA subspaces by greedily peeling
off samples a fitted subspace reconstructs well, subspaces are matched
across domains by their Grassmann directional distance, every matched pair
is aligned in closed form, and target samples are classified by a nearest
neighbour in the shared coordinates.
"""

from .alignment import align_pair, build_features
from .classify import PredictionResult, evaluate_accuracy, nn_classify
from .exceptions import (
    ConfigError,
    DataFileError,
    DegenerateDataError,
    DimensionMismatchError,
    MSAError,
)
from .grassmann import DistanceMatrix, directional_distance, distance_matrix
from .matching import Matching, greedy_match
from .multifit import FitConfig, SubspaceCollection, fit_multi
from .pipeline import (
    AdaptationConfig,
    AdaptationReport,
    AdaptationResult,
    BenchmarkResult,
    adapt,
    default_grid,
    format_table,
    run_benchmark,
    zscore,
)
from .subspace import (
    FeatureMatrix,
    Subspace,
    fit_pca,
    project,
    reconstruction_error,
    reconstruction_errors,
)
from .synthetic import planted_benchmark, random_orthogonal

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "AdaptationReport",
    "AdaptationResult",
    "BenchmarkResult",
    "ConfigError",
    "DataFileError",
    "DegenerateDataError",
    "DimensionMismatchError",
    "DistanceMatrix",
    "FeatureMatrix",
    "FitConfig",
    "MSAError",
    "Matching",
    "PredictionResult",
    "Subspace",
    "SubspaceCollection",
    "adapt",
    "align_pair",
    "build_features",
    "default_grid",
    "directional_distance",
    "distance_matrix",
    "evaluate_accuracy",
    "fit_multi",
    "fit_pca",
    "format_table",
    "greedy_match",
    "nn_classify",
    "planted_benchmark",
    "project",
    "random_orthogonal",
    "reconstruction_error",
    "reconstruction_errors",
    "run_benchmark",
    "zscore",
]
