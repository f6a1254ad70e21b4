"""Exact symbolic toolkit for deformations of compact holomorphic Poisson
submanifolds: controlling complexes, degree-zero cohomology, order-by-order
existence and obstruction analysis, family verification and matching, and
small-extension obstruction calculus — all over exact rational arithmetic.
"""

from .artin import ArtinReport, artin_first_order, artin_obstruction
from .complexes import (CohomologyReport, PoissonLineBundle, affine_hyper,
                        atlas_hyper_truncated, build_complex,
                        characteristic_map, h0_complex,
                        semiregularity_image_rank)
from .deformation import (DeformationProblem, DeformationState, Obstructed,
                          ObstructionCocycle, SolverResult, initial_state,
                          match_families, obstruction_cocycle, run_solver,
                          solve_order, verify_family)
from .dsl import ProblemFile, parse
from .errors import (ChartMismatch, ClosednessViolation, DegreeBoundTooSmall,
                     InconsistentData, InvalidDeformation, MatchFailure,
                     NegativePowerAtZero, NonAdaptedTransition,
                     NonInvertibleSubstitution, NotInKernel,
                     NotPoissonSubmanifold, ParameterMismatch, ParseError,
                     ToolkitError, UnstableAnsatz, WrongCodimension)
from .geometry import (ABSENT, Chart, ChartedSpace, PoissonManifold,
                       SubmanifoldData, affine_space, builtin_space,
                       extract_submanifold, hirzebruch, projective_space)
from .polyvector import Polyvector, pushforward, restrict, schouten
from .symbolic import LaurentPoly, TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "ABSENT", "ArtinReport", "Chart", "ChartMismatch", "ChartedSpace",
    "ClosednessViolation", "CohomologyReport", "DeformationProblem",
    "DeformationState", "DegreeBoundTooSmall", "InconsistentData",
    "InvalidDeformation", "LaurentPoly", "MatchFailure",
    "NegativePowerAtZero", "NonAdaptedTransition", "NonInvertibleSubstitution",
    "NotInKernel", "NotPoissonSubmanifold", "Obstructed", "ObstructionCocycle",
    "ParameterMismatch", "ParseError", "PoissonLineBundle", "PoissonManifold",
    "Polyvector", "ProblemFile", "SolverResult", "SubmanifoldData",
    "ToolkitError", "TruncatedSeries", "UnstableAnsatz", "WrongCodimension",
    "affine_hyper", "affine_space", "artin_first_order", "artin_obstruction",
    "atlas_hyper_truncated", "build_complex", "builtin_space",
    "characteristic_map", "extract_submanifold",
    "h0_complex", "hirzebruch", "initial_state", "match_families",
    "obstruction_cocycle", "parse", "projective_space", "pushforward",
    "restrict", "run_solver", "schouten", "semiregularity_image_rank",
    "solve_order", "verify_family",
]
