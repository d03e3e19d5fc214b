"""Projection-free conditional gradient solvers on the scaled simplex."""

from .core import (
    Counters,
    DescentViolationError,
    LineSearchError,
    NonFiniteOracleError,
    SimplexSet,
    SmoothObjective,
    SolveReport,
    StageRecord,
    Status,
    armijo_step,
    exact_lmo,
    gap,
    step_point,
)
from .harness import (
    BenchPlan,
    RunRow,
    default_plan,
    emit_table,
    run_plan,
    run_single,
)
from .oracle import (
    FDSettings,
    NonConvergenceError,
    brute_force_gap,
    fd_gradient,
    reference_fstar,
)
from .problems import (
    LeastSquaresObjective,
    ProblemSpec,
    QuadraticFormObjective,
    build_instance,
    build_phi1_matrix,
    build_phi2_terms,
    build_phi3_data,
    lipschitz_upper_bound,
    make_objective,
)
from .solvers import (
    SolverConfig,
    StageLimitError,
    Trace,
    solve_cgm,
    solve_cgmi,
    solve_cgmil,
    solve_cgmis,
    solve_cgms,
)

__version__ = "0.1.0"
