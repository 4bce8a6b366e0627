"""Degenerate-parabolic half-space solver and verification toolkit."""

from .analytic import AnalyticFunction, bump
from .fields import (CoefficientField, constant_field, from_expressions,
                     heston, homogeneous_drift, validate_assumptions)
from .grid import Grid, GridFunction, Region, SpaceTimePoint
from .metrics import (cycloidal_distance, parabolic_distance,
                      slab_equivalence_constants)
from .reduction import build_reduction_plan
from .solver import (CauchyProblem, convergence_study, discretize_operator,
                     manufactured_problem, solve_cauchy)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction", "bump", "CoefficientField", "constant_field",
    "from_expressions", "heston", "homogeneous_drift",
    "validate_assumptions", "Grid", "GridFunction", "Region",
    "SpaceTimePoint", "cycloidal_distance", "parabolic_distance",
    "slab_equivalence_constants", "build_reduction_plan",
    "CauchyProblem", "convergence_study", "discretize_operator",
    "manufactured_problem", "solve_cauchy", "__version__",
]
