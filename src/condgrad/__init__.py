"""Projection-free conditional gradient solvers on the scaled simplex.

Exported here: the five `solve_*` functions, what they take, return or
raise, and the names the README uses; the rest lives in its submodule."""

from .core import (
    DescentViolationError,
    LineSearchError,
    NonFiniteOracleError,
    SimplexSet,
    SmoothObjective,
    SolveReport,
    Status,
    armijo_step,
    exact_lmo,
    step_point,
)
from .problems import (
    LeastSquaresObjective,
    ProblemSpec,
    QuadraticFormObjective,
    build_instance,
    lipschitz_upper_bound,
)
from .solvers import (
    SolverConfig,
    solve_cgm,
    solve_cgmi,
    solve_cgmil,
    solve_cgmis,
    solve_cgms,
)

__version__ = "0.1.0"
