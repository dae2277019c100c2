"""Multilevel Picard solvers for semilinear parabolic terminal-value
problems, with reproducible splittable random streams, Gauss-Legendre
time quadrature, a-priori error bounds, and a deterministic d=1 oracle.
"""

from .analysis import (MemoryBudgetError, MissingBoundsError,
                       OracleUnavailableError, RunStats, TheoremBound,
                       TheoremNotApplicableError,
                       deterministic_picard, run_replications, theorem_bound)
from .mlp import (CostCounters, Estimate, InvalidTimeError, MlpConfig,
                  estimate)
from .problems import (AnalyticSolution, BsdeProblem, ProblemBounds,
                       ValidationEntry, make_problem, problem_names,
                       validate_assumptions)
from .quadrature import (DegenerateIntervalError, InvalidOrderError,
                         NonFiniteIntegrandError, QuadratureRule, build_rule,
                         integrate, legendre_roots, quadrature_error_bound)
from .sampling import StreamKey, child_key

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution",
    "BsdeProblem",
    "CostCounters",
    "DegenerateIntervalError",
    "Estimate",
    "InvalidOrderError",
    "InvalidTimeError",
    "MemoryBudgetError",
    "MissingBoundsError",
    "MlpConfig",
    "NonFiniteIntegrandError",
    "OracleUnavailableError",
    "ProblemBounds",
    "QuadratureRule",
    "RunStats",
    "StreamKey",
    "TheoremBound",
    "TheoremNotApplicableError",
    "ValidationEntry",
    "build_rule",
    "child_key",
    "deterministic_picard",
    "estimate",
    "integrate",
    "legendre_roots",
    "make_problem",
    "problem_names",
    "quadrature_error_bound",
    "run_replications",
    "theorem_bound",
    "validate_assumptions",
    "__version__",
]
