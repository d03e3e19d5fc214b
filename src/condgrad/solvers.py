"""Conditional gradient solvers: one loop with a direction rule and a step rule.

Every method runs the same iteration (linearize, pick a vertex, step toward
it with a convex combination) in `_run`, with two independent choices:

  method       direction                          step
  solve_cgm    exact vertex oracle                Armijo backtracking
  solve_cgms   exact vertex oracle                adaptive, no line search
  solve_cgmi   inexact cyclic search + restarts   Armijo backtracking
  solve_cgmil  inexact cyclic search + restarts   fixed, from a Lipschitz bound
  solve_cgmis  inexact cyclic search + restarts   adaptive, no line search

Reported counters measure the per-step oracle cost of a run: the one-time
seed evaluation of f(x0) and the terminal certification that stops the run
are not charged, while the full gradient consumed by the default stage
tolerance rule is. Under this accounting the exact-oracle methods satisfy
kg = n*it and the adaptive-step methods satisfy kf = it, both exactly.
Each Armijo trial is charged one kf and each probe of the inexact
direction search one kg, the paper's costs, however the code obtains them
(see `armijo_step` and `inexact_direction`). The objective's own kf and kg
count what it evaluated: `value` calls, and n per `gradient`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    Counters,
    DescentViolationError,
    NonFiniteOracleError,
    SimplexSet,
    SmoothObjective,
    SolveReport,
    StageRecord,
    Status,
    _is_integer,
    _is_real,
    armijo_step,
    as_vector,
    exact_lmo,
    # unused here, but perfbench/spans.py wraps `solvers.step_point` by name
    step_point,
)


# The most tolerance stages a restarted solver may open. Restarts add no
# iterations, so for nu close to 1, where each stage's tolerance is barely
# below the last, only this constant bounds the run.
MAX_STAGES = 60


class StageLimitError(RuntimeError):
    """A restarted solver ran out of tolerance stages before terminating."""


@dataclass(frozen=True)
class SolverConfig:
    """All tunables shared by the solver family.

    delta0 is the initial stage tolerance for the restarted methods; None
    selects max(eps, nu * gap(x0)), computed with one full gradient at the
    start (charged to kg).
    """

    beta: float = 0.5          # sufficient-decrease slope
    theta: float = 0.5         # backtracking ratio
    sigma: float = 0.9         # step shrink factor on failed acceptance
    nu: float = 0.5            # stage tolerance decrease factor
    eps: float = 0.1           # target gap
    delta0: Optional[float] = None
    tau0: float = 0.9          # initial step ceiling
    max_iterations: int = 1_000_000

    def __post_init__(self):
        for name in ("beta", "theta", "sigma", "nu", "tau0"):
            v = getattr(self, name)
            if not (_is_real(v) and 0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0,1), got {v!r}")
        if not (_is_real(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be a positive real, got {self.eps!r}")
        if self.delta0 is not None and not (_is_real(self.delta0) and self.delta0 > 0.0):
            raise ValueError(f"delta0 must be a positive real when given, got {self.delta0!r}")
        if not (_is_integer(self.max_iterations) and self.max_iterations >= 0):
            raise ValueError(f"max_iterations must be an integer >= 0, got {self.max_iterations!r}")


@dataclass(frozen=True)
class StepRecord:
    """One iteration, as appended to a solver's `trace` list: iteration k is
    the record at index k, and f from x0 to the end is `[s.f_before for s in
    trace] + [report.f]`.

    `delta`, `mu` and `f_before` are NaN where the solver did not know them;
    `accepted` is None for line-search methods, otherwise the outcome of the
    sufficient-decrease test; `tests` is the number of vertices probed by the
    inexact direction search (0 for exact-oracle methods).
    """

    stage: int
    delta: float
    lam: float
    trials: int
    f_before: float
    dir_derivative: float
    vertex: int
    accepted: Optional[bool]
    mu: float
    tests: int


class FoundDirection(NamedTuple):
    """A vertex b*e_index satisfying the descent threshold:
    <f'(x), x - b*e_index> = descent."""

    index: int
    descent: float
    tests: int
    kg_cost: int


def inexact_direction(f: SmoothObjective, feasible_set: SimplexSet, x,
                      delta_p: float, cursor: int):
    """Scan vertices cyclically from `cursor` for one with
    <f'(x), x - b e_i> >= delta_p.

    Probe t is at index (cursor + t) % n and reads entry i of one gradient
    vector, f.gradient(x), so the result is that of probing one partial
    derivative at a time. With the <f'(x), x> fast path the run is charged one
    kg per probe, kg_cost = t + 1 (n for a full cycle); without it <f'(x),
    x> comes from the gradient, and the run is charged n. The oracle
    validates x.

    Returns (FoundDirection, cursor advanced past the hit) or, after a full
    failed cycle, (the exact gap at x, `_gap`, as a float, cursor
    unchanged); the gap is NaN when some partial is.
    """
    if not delta_p > 0.0:
        raise ValueError(f"delta_p must be positive, got {delta_p}")
    n = feasible_set.n
    if f.n != n:
        raise ValueError(f"objective dimension {f.n} does not match set dimension {n}")
    b = feasible_set.b
    gx = f.gradient_dot_point(x)
    g = f.gradient(x)
    full = gx is None
    if full:
        gx = float(np.dot(g, x))
    descents = gx - b * g
    start = cursor % n
    hit = descents >= delta_p
    i = start + int(hit[start:].argmax())
    if not hit[i]:
        i = int(hit[:start].argmax()) if start else 0
    if hit[i]:
        t = (i - start) % n
        cost = n if full else t + 1
        return FoundDirection(i, float(descents[i]), t + 1, cost), (i + 1) % n
    return _gap(g, gx, b), cursor


# ---------------------------------------------------------------------------
# the conditional gradient loop

def _gap(g: np.ndarray, gx: float, b: float) -> float:
    """The Frank-Wolfe gap max_i <g, x - b e_i> = <g, x> - b min_i g_i, from
    gx = <g, x>; NaN when some g_i is."""
    return gx - b * float(np.min(g))


def _run(f: SmoothObjective, feasible_set: SimplexSet, cfg: SolverConfig, x0,
         trace: Optional[list], direction: str, step: str,
         lam_bar: float = math.nan, check_descent: bool = False) -> SolveReport:
    """The conditional gradient loop shared by all five methods.

    `direction` is "exact" (the gap is tested before the iteration cap) or
    "inexact" (the cap is tested before searching, and a capped run certifies
    its gap with one uncharged full gradient). `step` is "armijo", "adaptive"
    or "fixed"; `lam_bar` and `check_descent` belong to "fixed". The Armijo
    step takes its accepted trial, which `value` validated and cached; the
    adaptive and fixed steps take `f.vertex_step`, so the oracle builds the
    new iterate and keys its cache on it without a scan, deriving its state
    from x's where it can. Each iteration appends its StepRecord to the
    `trace` list, if one is given.
    """
    inexact = direction == "inexact"
    # a private read-only copy: the oracle's cache trusts it by identity
    x = as_vector(x0, feasible_set.n).copy()
    x.setflags(write=False)
    if x.shape[0] != f.n:
        raise ValueError(f"objective dimension {f.n} does not match set dimension {feasible_set.n}")
    if not feasible_set.contains(x):
        raise ValueError("starting point is not feasible")
    counters = Counters()
    # line-search or acceptance-test seed; not part of the per-step cost.
    # The fixed step needs no function values unless it checks descent.
    fx = f.value(x) if step != "fixed" or check_descent else None
    if fx is not None and not math.isfinite(fx):
        raise NonFiniteOracleError(f"non-finite objective value f(x0) = {fx}", point=x)
    status, stages = None, None
    stage, delta, cursor, iterations = 1, math.nan, 0, 0
    if inexact:
        # the default rule spends one full gradient at x0 and charges it;
        # an explicit delta0 costs nothing
        delta0 = cfg.delta0
        if delta0 is None:
            counters.kg += feasible_set.n
            g = f.gradient(x)
            mu0 = _gap(g, float(np.dot(g, x)), feasible_set.b)
            if not math.isfinite(mu0):
                raise NonFiniteOracleError(f"non-finite gap at x0: {mu0}", point=x)
            if mu0 <= cfg.eps:  # the start is already good enough: skip the loop
                status, mu = Status.CONVERGED, mu0
            delta0 = max(cfg.eps, cfg.nu * mu0)
        stages = []
        delta = cfg.nu ** stage * delta0
    # adaptive step: ceiling tau, step lam = tau * sigma**failures
    tau = lam = cfg.tau0
    failures = 0
    while status is None:
        if inexact:
            if counters.it >= cfg.max_iterations:
                # exact gap from one full gradient; reporting-only, never charged
                g = f.gradient(x)
                status, mu = Status.ITERATION_CAP, _gap(g, float(np.dot(g, x)), feasible_set.b)
                stages.append(StageRecord(delta, iterations, None, x))
                break
            res, cursor = inexact_direction(f, feasible_set, x, delta, cursor)
            if isinstance(res, float):  # a full failed cycle certified the gap
                mu = res
                if not math.isfinite(mu):
                    raise NonFiniteOracleError(
                        f"non-finite gap after {counters.it} iterations: {mu}", point=x)
                stages.append(StageRecord(delta, iterations, mu, x))
                if mu <= cfg.eps:
                    status = Status.CONVERGED  # terminal certification; not charged
                    break
                counters.kg += feasible_set.n
                counters.restarts += 1
                if stage + 1 > MAX_STAGES:
                    raise StageLimitError(
                        f"no convergence after {MAX_STAGES} stages "
                        f"(gap {mu}, tolerance {delta})")
                stage, iterations = stage + 1, 0
                delta = cfg.nu ** stage * delta0
                if step == "adaptive":  # restart ceiling, see solve_cgmis
                    tau = lam = min(cfg.tau0, lam / cfg.sigma)
                    failures = 0
                continue
            counters.kg += res.kg_cost
            index, descent, tests = res.index, res.descent, res.tests
        else:
            g = f.gradient(x)
            # x is finite, so <g, x> is non-finite whenever some g_i is
            gx = float(np.dot(g, x))
            if not math.isfinite(gx):
                raise NonFiniteOracleError(
                    f"non-finite gradient after {counters.it} iterations: "
                    f"<f'(x), x> = {gx}", point=x)
            index = exact_lmo(g, feasible_set)
            mu = gx - feasible_set.b * float(g[index])
            if mu <= cfg.eps:
                status = Status.CONVERGED
                break
            if counters.it >= cfg.max_iterations:
                status = Status.ITERATION_CAP
                break
            counters.kg += feasible_set.n
            descent, tests = mu, 0
        trials, accepted = 0, None
        if step == "armijo":
            # the bits of x + (b*e_i - x) at index i
            x_i = float(x[index])
            z_i = x_i + (feasible_set.b - x_i)
            search = armijo_step(f, x, index, z_i, -descent, cfg.beta, cfg.theta, fx)
            x_new, f_new, lam, trials = (search.new_point, search.new_value,
                                         search.step, search.trials)
        else:
            # the adaptive step is always taken and costs one kf; the fixed
            # step costs none (check_descent evaluations are never charged)
            if step == "fixed":
                lam = min(1.0, lam_bar * delta)
            x_new = f.vertex_step(x, index, feasible_set.b, lam)
            f_new = None if fx is None else f.value(x_new)
            if step == "adaptive":
                trials, accepted = 1, f_new <= fx + cfg.beta * lam * (-descent)
            elif check_descent:
                slack = cfg.beta * lam * descent
                if f_new > fx - slack + 1e-9 * max(1.0, abs(fx)):
                    raise DescentViolationError(
                        f"sufficient decrease violated at iteration {counters.it}: "
                        f"{f_new} > {fx} - {slack}; the Lipschitz bound is too small",
                        point=x, step=lam, f_before=fx, f_after=f_new)
        counters.kf += trials
        if trace is not None:
            trace.append(StepRecord(
                stage=stage, delta=delta, lam=lam, trials=trials,
                f_before=fx if fx is not None else math.nan,
                dir_derivative=-descent, vertex=index, accepted=accepted,
                mu=math.nan if inexact else mu, tests=tests))
        x, fx = x_new, f_new
        counters.it += 1
        iterations += 1
        if accepted is False:
            failures += 1
            lam = tau * cfg.sigma ** failures
    final_f = fx if fx is not None else f.value(x)  # reporting only
    # the adaptive step keeps any f it takes, the fixed step evaluates f
    # only here, and a capped inexact run takes its gap only here
    if not (math.isfinite(final_f) and math.isfinite(mu)):
        raise NonFiniteOracleError(
            f"non-finite result after {counters.it} iterations: "
            f"f = {final_f}, gap = {mu}", point=x)
    return SolveReport(x=x, f=final_f, gap=mu, counters=counters, status=status,
                       stages=stages)


# ---------------------------------------------------------------------------
# the five methods

def solve_cgm(f: SmoothObjective, feasible_set: SimplexSet, cfg: SolverConfig,
              x0, trace: Optional[list] = None) -> SolveReport:
    """Classic conditional gradient with Armijo backtracking.

    Each iteration takes one full gradient, one exact vertex oracle (which
    yields the gap for free), and a backtracking step toward the vertex.
    Stops when the gap falls to cfg.eps or at the iteration cap. Descent is
    monotone by construction of the line search.
    """
    return _run(f, feasible_set, cfg, x0, trace, "exact", "armijo")


def solve_cgms(f: SmoothObjective, feasible_set: SimplexSet, cfg: SolverConfig,
               x0, trace: Optional[list] = None) -> SolveReport:
    """Conditional gradient with the adaptive step rule, no line search.

    The step toward the vertex is always taken; the sufficient-decrease test
    only decides whether the next step keeps the current size or shrinks it
    by sigma. Exactly one new function value and one full gradient per
    iteration, so kf = it and kg = n*it.
    """
    return _run(f, feasible_set, cfg, x0, trace, "exact", "adaptive")


def solve_cgmi(f: SmoothObjective, feasible_set: SimplexSet, cfg: SolverConfig,
               x0, trace: Optional[list] = None) -> SolveReport:
    """Inexact direction finding with tolerance restarts, Armijo steps.

    Stage p accepts any vertex whose linearized descent reaches
    delta_p = nu**p * delta0; a full failed cycle certifies the exact gap,
    triggering either convergence (gap <= eps) or a restart with the next
    tolerance. Per-step decrease is at least beta * lam * delta_p.
    """
    return _run(f, feasible_set, cfg, x0, trace, "inexact", "armijo")


def solve_cgmil(f: SmoothObjective, feasible_set: SimplexSet, cfg: SolverConfig,
                x0, lipschitz: float, trace: Optional[list] = None,
                check_descent: bool = False) -> SolveReport:
    """Inexact directions with a fixed per-stage step, no function values.

    With a valid gradient Lipschitz upper bound L, the step
    min(1, delta_p * 2(1-beta)/(L rho^2)) satisfies the sufficient-decrease
    inequality analytically, so the method needs no line search and no
    objective evaluations; kf stays 0. `check_descent` re-verifies the
    inequality at every step (debug aid, excluded from the cost counters).
    """
    if not (_is_real(lipschitz) and lipschitz > 0.0):
        raise ValueError(f"lipschitz must be a positive real, got {lipschitz!r}")
    lam_bar = 2.0 * (1.0 - cfg.beta) / (lipschitz * feasible_set.diameter_squared)
    return _run(f, feasible_set, cfg, x0, trace, "inexact", "fixed",
                lam_bar=lam_bar, check_descent=check_descent)


def solve_cgmis(f: SmoothObjective, feasible_set: SimplexSet, cfg: SolverConfig,
                x0, trace: Optional[list] = None) -> SolveReport:
    """Inexact directions plus the adaptive step rule, no line search.

    Within a stage the step control mirrors solve_cgms (always step, shrink
    by sigma on failed acceptance). A restart begins the next stage with
    step ceiling min(tau0, last step / sigma), letting steps recover after a
    successful stage while keeping the ceiling inside (0,1). One function
    value per iteration, so kf = it exactly.
    """
    return _run(f, feasible_set, cfg, x0, trace, "inexact", "adaptive")
