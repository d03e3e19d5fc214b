"""Conditional gradient solvers: one loop with a direction rule and a step rule.

Every method runs the same iteration (linearize, pick a vertex, step toward
it with a convex combination) in `_run`, with two independent choices:

  method       direction                          step
  solve_cgm    exact vertex oracle                Armijo backtracking
  solve_cgms   exact vertex oracle                adaptive, no line search
  solve_cgmi   inexact cyclic search + restarts   Armijo backtracking
  solve_cgmil  inexact cyclic search + restarts   fixed, from a Lipschitz bound
  solve_cgmis  inexact cyclic search + restarts   adaptive, no line search

A `trace` list, when given, gets one `StepRecord` per iteration: the run's
one record of its steps and tolerance stages.

Each iterate is linearized once: `_run` reads g = f'(x) and <g, x> at x0
and after each step, and every rule (the direction, the default stage
tolerance, a restart, the iteration cap) reads that pair. Every method
reports the gap <g, x> - b min g, and a gradient whose <g, x> is not
finite stops the run with `NonFiniteOracleError`.

Reported counters are charge rules, the paper's per-step oracle cost, not
call counts: the seed f(x0) and the terminal certification are not
charged, while the default stage tolerance rule and each restart are
charged n kg. Under this accounting the exact-oracle methods satisfy
kg = n*it and the adaptive-step methods satisfy kf = it, both exactly.
Each Armijo trial is charged one kf, the paper's cost, however the code
obtains it (see `armijo_step`). An inexact direction search is charged
one kg per probed vertex, the paper's cost, when the objective declares
`cheap_gradient_dot_point`, and n otherwise. The objective's own kf and kg
count what it evaluated: `value` calls, and n per `gradient`, so its kg
is n*(it + 1) for every method.

An exception that stops a run after its checks of x0 carries the run's
`Counters` as its `counters` attribute: what the run charged until it
stopped, where a line search that raised has charged its trials, one kf
each, as one that returns does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    Counters,
    DescentViolationError,
    NonFiniteOracleError,
    SimplexSet,
    SmoothObjective,
    SolveReport,
    Status,
    _is_real,
    _require_int,
    _require_positive,
    armijo_step,
    as_vector,
    exact_lmo,
    # unused here, but perfbench/spans.py wraps `solvers.step_point` by name
    step_point,
)


@dataclass(frozen=True)
class SolverConfig:
    """All tunables shared by the solver family, each with its description
    as `metadata["help"]`: the command line offers every field as a flag.

    delta0 is the initial stage tolerance for the restarted methods; None
    selects max(eps, nu * gap(x0)), from the gradient at x0 (charged n kg).
    """

    beta: float = field(default=0.5, metadata={"help": "sufficient-decrease slope"})
    theta: float = field(default=0.5, metadata={"help": "backtracking ratio"})
    sigma: float = field(default=0.9, metadata={"help": "step shrink factor on failed acceptance"})
    nu: float = field(default=0.5, metadata={"help": "stage tolerance decrease factor"})
    eps: float = field(default=0.1, metadata={"help": "target gap"})
    delta0: Optional[float] = field(default=None, metadata={
        "help": "initial stage tolerance (default: max(eps, nu*gap(x0)))"})
    tau0: float = field(default=0.9, metadata={"help": "initial step ceiling"})
    max_iterations: int = field(default=1_000_000, metadata={"help": "iteration cap per run"})

    def __post_init__(self):
        for name in ("beta", "theta", "sigma", "nu", "tau0"):
            v = getattr(self, name)
            if not (_is_real(v) and 0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0,1), got {v!r}")
        _require_positive(self.eps, "eps")
        if self.delta0 is not None:
            _require_positive(self.delta0, "delta0")
        _require_int(self.max_iterations, "max_iterations", 0)


@dataclass(frozen=True)
class StepRecord:
    """One iteration, as appended to a solver's `trace` list: iteration k is
    the record at index k, and f from x0 to the end is `[s.f_before for s in
    trace] + [report.f]`. Stage p ran the records with `stage == p`.

    `mu` is the exact gap at the step's start where the run computed it: at
    every cgm and cgms step, and for an inexact method at the first step after
    the default delta0 rule's gap at x0 or after a failed cycle (then delta <=
    mu < delta / nu: the restart opened the first stage mu reaches). `delta`,
    `mu` and `f_before` are NaN where the solver did not know them; `accepted`
    is None for line-search methods, otherwise the outcome of the
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


def inexact_direction(g: np.ndarray, gx: float, b: float, delta_p: float,
                      cursor: int):
    """Scan vertices cyclically from `cursor` for one with <f'(x), x - b e_i>
    = gx - b g_i >= delta_p, from the iterate's g = f'(x) and gx = <g, x>.

    Probe t is at index (cursor + t) % n and reads entry i of g, so the
    result is that of probing one partial derivative at a time; `tests` =
    t + 1 is the number of probes, and `_run` charges them.

    Returns (FoundDirection, cursor advanced past the hit) or, after a full
    failed cycle, (the exact gap at x, `_gap`, as a float, cursor
    unchanged); the gap is NaN when some partial is.
    """
    if not delta_p > 0.0:
        raise ValueError(f"delta_p must be positive, got {delta_p}")
    n = g.shape[0]
    descents = gx - b * g
    start = cursor % n
    hit = descents >= delta_p
    i = start + int(hit[start:].argmax())
    if not hit[i]:
        i = int(hit[:start].argmax()) if start else 0
    if hit[i]:
        return FoundDirection(i, float(descents[i]), (i - start) % n + 1), (i + 1) % n
    return _gap(g, gx, b), cursor


# ---------------------------------------------------------------------------
# the conditional gradient loop

def _gap(g: np.ndarray, gx: float, b: float) -> float:
    """The Frank-Wolfe gap max_i <g, x - b e_i> = <g, x> - b min_i g_i, from
    gx = <g, x>; NaN when some g_i is."""
    return gx - b * float(np.min(g))


def _linearize(f: SmoothObjective, x: np.ndarray, it: int):
    """g = f'(x) and gx = <g, x>, the run's one gradient read at iterate x;
    x is finite, so gx is non-finite, and the run stops, when some g_i is."""
    g = f.gradient(x)
    gx = float(g.dot(x))
    if not math.isfinite(gx):
        raise NonFiniteOracleError(
            f"non-finite gradient after {it} iterations: <f'(x), x> = {gx}", point=x)
    return g, gx


def _first_stage_reached(stage: int, mu: float, nu: float, delta0: float) -> int:
    """The first p > `stage` with nu**p * delta0 <= mu (> 0), counted up from below the logs' p."""
    p = max(stage + 1, math.floor((math.log(mu) - math.log(delta0)) / math.log(nu)) - 1)
    while nu ** p * delta0 > mu:
        p += 1
    return p


def _run(f: SmoothObjective, feasible_set: SimplexSet, cfg: SolverConfig, x0,
         trace: Optional[list], direction: str, step: str,
         lam_bar: float = math.nan, check_descent: bool = False) -> SolveReport:
    """The conditional gradient loop shared by all five methods.

    At the iteration cap the run reports Converged when its gap is at most eps.
    `direction` is "exact" or "inexact"; `step` is "armijo", "adaptive" or
    "fixed", and `lam_bar` and `check_descent` belong to "fixed". The Armijo
    step takes its accepted trial, which `value` validated and cached; the
    adaptive and fixed steps take `f.vertex_step`, so the oracle builds the
    new iterate and keys its cache on it without a scan, deriving its state
    from x's where it can. Each iteration appends its StepRecord to the
    `trace` list, if one is given. An exception raised once the counters
    exist leaves with them as its `counters` attribute, kf including the
    `trials` of the Armijo search that raised it.
    """
    inexact = direction == "inexact"
    armijo, adaptive, fixed = step == "armijo", step == "adaptive", step == "fixed"
    n, b = feasible_set.n, feasible_set.b
    beta, theta, sigma, nu, eps = cfg.beta, cfg.theta, cfg.sigma, cfg.nu, cfg.eps
    tau0, max_iterations = cfg.tau0, cfg.max_iterations
    # a private read-only copy: the oracle's cache trusts it by identity
    x = as_vector(x0, n).copy()
    x.setflags(write=False)
    if x.shape[0] != f.n:
        raise ValueError(f"objective dimension {f.n} does not match set dimension {n}")
    if not feasible_set.contains(x):
        raise ValueError("starting point is not feasible")
    # the paper's charge of one kg per probe needs a cheap <f'(x), x>
    probe_charge = f.cheap_gradient_dot_point
    counters = Counters()
    try:
        # line-search or acceptance-test seed; not part of the per-step cost.
        # The fixed step needs no function values unless it checks descent.
        fx = f.value(x) if not fixed or check_descent else None
        if fx is not None and not math.isfinite(fx):
            raise NonFiniteOracleError(f"non-finite objective value f(x0) = {fx}", point=x)
        g, gx = _linearize(f, x, 0)
        status, mu = None, math.nan  # mu: the exact gap at x, NaN until computed
        stage, delta, cursor = 1, math.nan, 0
        if inexact:
            # the default rule reads the gap at x0 and is charged its gradient;
            # an explicit delta0 costs nothing
            delta0 = cfg.delta0
            if delta0 is None:
                counters.kg += n
                mu = _gap(g, gx, b)
                if mu <= eps:  # the start is already good enough: skip the loop
                    status = Status.CONVERGED
                delta0 = max(eps, nu * mu)
            delta = nu ** stage * delta0
        # adaptive step: ceiling tau, step lam = tau * sigma**failures
        tau = lam = tau0
        failures = 0
        while status is None:
            if counters.it >= max_iterations:
                # the gap of the gradient already read; reporting only, never charged
                mu = _gap(g, gx, b)
                status = Status.CONVERGED if mu <= eps else Status.ITERATION_CAP
                break
            if inexact:
                res, cursor = inexact_direction(g, gx, b, delta, cursor)
                if isinstance(res, float):  # a full failed cycle certified the gap
                    mu = res
                    if mu <= eps:
                        status = Status.CONVERGED  # terminal certification; not charged
                        break
                    # each stage passed would fail on g, and is charged so
                    passed = _first_stage_reached(stage, mu, nu, delta0) - stage
                    counters.kg += passed * n
                    counters.restarts += passed
                    stage += passed
                    delta = nu ** stage * delta0
                    if adaptive:  # restart ceiling, see solve_cgmis
                        for _ in range(passed):  # until lam stops moving, at tau0
                            lam, prev = min(tau0, lam / sigma), lam
                            if lam == prev:
                                break
                        tau, failures = lam, 0
                    continue  # the next scan reads the same gradient, and hits
                counters.kg += res.tests if probe_charge else n
                index, descent, tests = res.index, res.descent, res.tests
            else:
                index = exact_lmo(g, feasible_set)
                mu = gx - b * float(g[index])
                if mu <= eps:
                    status = Status.CONVERGED
                    break
                counters.kg += n
                descent, tests = mu, 0
            trials, accepted = 0, None
            if armijo:
                search = armijo_step(f, x, index, b, -descent, beta, theta, fx)
                x_new, f_new, lam, trials = (search.new_point, search.new_value,
                                             search.step, search.trials)
            else:
                # the adaptive step is always taken and costs one kf; the fixed
                # step costs none (check_descent evaluations are never charged)
                if fixed:
                    lam = min(1.0, lam_bar * delta)
                x_new = f.vertex_step(x, index, b, lam)
                f_new = None if fx is None else f.value(x_new)
                if adaptive:
                    trials, accepted = 1, f_new <= fx + beta * lam * (-descent)
                elif check_descent:
                    slack = beta * lam * descent
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
                    mu=mu, tests=tests))
            x, fx, mu = x_new, f_new, math.nan  # the gap at x_new is not known yet
            counters.it += 1
            if accepted is False:
                failures += 1
                lam = tau * sigma ** failures
            g, gx = _linearize(f, x, counters.it)
        final_f = fx if fx is not None else f.value(x)  # reporting only
        # the adaptive step keeps any f it takes; the fixed step evaluates f here
        if not (math.isfinite(final_f) and math.isfinite(mu)):
            raise NonFiniteOracleError(
                f"non-finite result after {counters.it} iterations: "
                f"f = {final_f}, gap = {mu}", point=x)
        return SolveReport(x=x, f=final_f, gap=mu, counters=counters, status=status)
    except Exception as exc:
        # an Armijo search that raised is charged the trials it made
        counters.kf += getattr(exc, "trials", None) or 0
        exc.counters = counters  # what the run charged until it stopped
        raise


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
    triggering either convergence (gap <= eps) or a restart that opens the
    first stage whose tolerance the gap reaches. Per-step decrease is at
    least beta * lam * delta_p.
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
    _require_positive(lipschitz, "lipschitz")
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
