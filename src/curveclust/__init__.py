"""Clustering of misaligned curves via penalized warping similarity."""

from .combining import Partition, assign_groups, candidate_partition, combine_group
from .curves import Curve, normalize, smooth_curve
from .indices import adjusted_rand, distances_from_similarity, dunn, silhouette
from .pipeline import RunConfig, RunResult, combination_thresholds, prepare_curves, run
from .similarity import (
    SimilarityEntry,
    SimilarityMatrix,
    rho_given_psi,
    similarity,
    similarity_matrix,
)
from .simulation import Scenario, generate, scenario_preset
from .splines import Grid, Layout, SplineRep
from .updating import UpdateContext, update_all, update_curve, weight_exponent
from .warping import Warping, invert_warping, make_warping, roughness_penalty

__all__ = [
    "Curve",
    "Grid",
    "Layout",
    "Partition",
    "RunConfig",
    "RunResult",
    "Scenario",
    "SimilarityEntry",
    "SimilarityMatrix",
    "SplineRep",
    "UpdateContext",
    "Warping",
    "adjusted_rand",
    "assign_groups",
    "candidate_partition",
    "combination_thresholds",
    "combine_group",
    "distances_from_similarity",
    "dunn",
    "generate",
    "invert_warping",
    "make_warping",
    "normalize",
    "prepare_curves",
    "rho_given_psi",
    "roughness_penalty",
    "run",
    "scenario_preset",
    "silhouette",
    "similarity",
    "similarity_matrix",
    "smooth_curve",
    "update_all",
    "update_curve",
    "weight_exponent",
]
