"""Independent reference implementations backing the test suite: brute-force
gap by vertex enumeration, central finite differences, and a high-accuracy
objective floor. None of these share code with the solver paths beyond the
objective oracle interface."""

from __future__ import annotations

import math

import numpy as np

from .core import SimplexSet, SmoothObjective, Status, as_vector
from .problems import ProblemSpec, build_instance
from .solvers import SolverConfig, solve_cgm


class NonConvergenceError(RuntimeError):
    """The reference solve missed its target accuracy; carries the best
    objective value and gap reached."""

    def __init__(self, message: str, *, best_value: float, best_gap: float):
        super().__init__(message)
        self.best_value = best_value
        self.best_gap = best_gap


def brute_force_gap(f: SmoothObjective, feasible_set: SimplexSet, x) -> float:
    """max_y <f'(x), x - y> by explicit enumeration of every vertex.

    Takes one full gradient, builds each vertex, and maximizes the literal
    inner product; deliberately avoids any fast path or shared formula.
    """
    x = as_vector(x, feasible_set.n)
    if not feasible_set.contains(x):
        raise ValueError("brute_force_gap is only defined for feasible points")
    g = f.gradient(x)
    best = -math.inf
    for i in range(feasible_set.n):
        v = np.zeros(feasible_set.n)
        v[i] = feasible_set.b
        best = max(best, float(np.dot(g, x - v)))
    return best


def fd_gradient(f: SmoothObjective, x, step: float = 1e-6) -> np.ndarray:
    """Central finite differences, (f(x + h e_i) - f(x - h e_i)) / 2h, with
    the per-coordinate step h_i = step * max(1, |x_i|)."""
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    x = as_vector(x, f.n)
    out = np.empty(f.n)
    for i in range(f.n):
        h = step * max(1.0, abs(float(x[i])))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        out[i] = (f.value(xp) - f.value(xm)) / (2.0 * h)
    return out


def reference_fstar(spec: ProblemSpec, target_gap: float = 1e-6,
                    max_iterations: int = 10_000_000) -> float:
    """Tight objective floor from a long high-accuracy classic run.

    Returns the final objective value of a run driven to the target gap from
    the barycenter. By convexity f(x) - f* <= gap(x), so the returned value
    is an upper bound on f* with error at most `target_gap`. Raises
    NonConvergenceError (carrying the best value and gap) when the target is
    out of reach within the iteration budget.

    The run uses a gentle sufficient-decrease slope (beta = 0.1): near the
    double-precision floor the default 0.5 demands decreases that round
    below one ulp of f, which can freeze the zigzag before tight gaps are
    certified.
    """
    objective, feasible, x0 = build_instance(spec)
    cfg = SolverConfig(beta=0.1, eps=target_gap, max_iterations=max_iterations)
    report = solve_cgm(objective, feasible, cfg, x0)
    if report.status is not Status.CONVERGED:
        raise NonConvergenceError(
            f"reference solve stalled at gap {report.gap} after "
            f"{report.counters.it} iterations (target {target_gap})",
            best_value=report.f, best_gap=report.gap)
    return report.f
