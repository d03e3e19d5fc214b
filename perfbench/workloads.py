"""The benchmark's workloads: their run lists, the seeded start rule, one
pass over a run list, the set-up timing and the correctness gate.

Every run goes through condgrad's public API (`build_instance`,
`lipschitz_upper_bound`, `solve_*`, `brute_force_gap`), as
`condgrad.harness.run_single` does, but with set-up timed apart from the
solve and, besides the barycenter, from seeded starts.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from condgrad import solvers
from condgrad.core import Status
from condgrad.oracle import brute_force_gap
from condgrad.problems import ProblemSpec, build_instance, lipschitz_upper_bound
from condgrad.solvers import SolverConfig

METHODS = ("cgm", "cgms", "cgmi", "cgmis", "cgmil")

# Rounding slack of the gate's gap check, in units of the magnitude of the
# terms the gap is computed from.
GAP_RTOL = 1e3 * np.finfo(np.float64).eps

# Set-up is a few milliseconds per workload, so one sample of it is mostly
# noise; setup_s is the median over at least this many timed rounds, taken
# for at least this long.
SETUP_ROUNDS = 15
SETUP_SECONDS = 1.0


@dataclass(frozen=True)
class Run:
    """One solve: a cell, a method and the index of the cell's seeded start
    (None for the barycenter, the paper's own start)."""

    spec: ProblemSpec
    method: str
    start: Optional[int]


@dataclass(frozen=True)
class Workload:
    name: str
    eps: float
    runs: tuple


def _runs(cells, methods, seeded):
    """Every method on every cell, from the barycenter and from `seeded`
    seeded starts."""
    starts = (None,) + tuple(range(seeded))
    return tuple(Run(spec, method, k) for spec in cells for k in starts for method in methods)


def _square(series, sizes):
    return [ProblemSpec(series=s, n=n) for s in series for n in sizes]


def _rect(series, shapes):
    return [ProblemSpec(series=s, n=n, m=m) for s in series for m, n in shapes]


def build_workloads() -> dict:
    """The three workloads by name. All use b = 10 and the paper's
    beta = theta = 0.5, sigma = 0.9, nu = 0.5, tau0 = 0.9 (SolverConfig's
    defaults); README.md gives the reason for each."""
    paper = _runs(_square((1, 2), (20, 50)) + _rect((3, 4), ((10, 20), (25, 50))),
                  METHODS, seeded=0)
    large = (_runs(_square((1, 2), (500,)), ("cgms",), seeded=1)
             + _runs(_rect((3, 4), ((250, 500), (500, 1000))), ("cgms",), seeded=1)
             + _runs(_rect((3,), ((250, 500),)), ("cgm",), seeded=0))
    tight = _runs(_square((1, 2), (20,)), ("cgm", "cgms", "cgmi", "cgmis"), seeded=10)
    return {
        "paper-grid": Workload("paper-grid", 0.1, paper),
        "large-n": Workload("large-n", 0.1, large),
        "tight-gap": Workload("tight-gap", 0.01, tight),
    }


def seeded_start(seed: int, spec: ProblemSpec, k: int) -> np.ndarray:
    """Seeded start k of a cell: uniform on the simplex, b * Dirichlet(1, ..., 1).

    The draw depends on the seed and the cell only, so every method on a
    cell starts from the same point, and a cell shared by two workloads gets
    the same starts at one seed.
    """
    rng = np.random.default_rng([seed, spec.series, spec.rows, spec.n, k])
    return spec.b * rng.dirichlet(np.ones(spec.n))


@dataclass
class RunRecord:
    """One solve's result, as written to the results file."""

    series: int
    m: int
    n: int
    method: str
    start: Optional[int]
    it: int = 0
    kf: int = 0
    kg: int = 0
    restarts: int = 0
    status: str = Status.ERROR.value
    solve_s: float = 0.0
    failure: Optional[str] = None


def time_setup(workload: Workload) -> float:
    """Median over the timed rounds of the summed set-up time of every run:
    build_instance, plus lipschitz_upper_bound for cgmil."""
    rounds = []
    began = time.perf_counter()
    while len(rounds) < SETUP_ROUNDS or time.perf_counter() - began < SETUP_SECONDS:
        total = 0.0
        for run in workload.runs:
            t0 = time.perf_counter()
            _, feasible, _ = build_instance(run.spec)
            if run.method == "cgmil":
                lipschitz_upper_bound(run.spec, feasible)
            total += time.perf_counter() - t0
        rounds.append(total)
    return statistics.median(rounds)


def gate(run: Run, report, objective, feasible, eps: float,
         gap_fn=brute_force_gap) -> Optional[str]:
    """The correctness gate; returns the reason a run fails it, or None.

    Checks that the run converged, that x is feasible, that the brute-force
    gap is at most eps up to rounding, and the paper's counter identities:
    kg = n*it for cgm and cgms, kf = it for cgms and cgmis, kf = 0 for cgmil.
    """
    if report.status is not Status.CONVERGED:
        return f"status {report.status.value}"
    x = report.x
    if not feasible.contains(x):
        return "final point is not feasible"
    g = objective.gradient(x)
    slack = GAP_RTOL * (abs(float(g @ x)) + feasible.b * float(np.abs(g).max()))
    gap = gap_fn(objective, feasible, x)
    if not gap <= eps + slack:
        return f"brute-force gap {gap!r} exceeds eps {eps} + slack {slack:.3g}"
    c, n = report.counters, feasible.n
    if run.method in ("cgm", "cgms") and c.kg != n * c.it:
        return f"kg = {c.kg} but n*it = {n * c.it}"
    if run.method in ("cgms", "cgmis") and c.kf != c.it:
        return f"kf = {c.kf} but it = {c.it}"
    if run.method == "cgmil" and c.kf != 0:
        return f"kf = {c.kf} for cgmil"
    return None


def run_pass(workload: Workload, seed: int, tracer=None) -> list:
    """Solve every run of the workload once; returns one RunRecord per run.

    Only the solve_* call is timed. With a tracer, the calls into each
    module are recorded as spans and the tracer checks its counts against
    the objective's own tallies after each solve.
    """
    cfg = SolverConfig(eps=workload.eps)
    build, lipschitz, gap_fn = build_instance, lipschitz_upper_bound, brute_force_gap
    if tracer is not None:
        build = tracer.wrap("problems.build_instance", build)
        lipschitz = tracer.wrap("problems.lipschitz_upper_bound", lipschitz)
        gap_fn = tracer.wrap("oracle.brute_force_gap", gap_fn)
    records = []
    for run in workload.runs:
        spec = run.spec
        rec = RunRecord(spec.series, spec.rows, spec.n, run.method, run.start)
        records.append(rec)
        objective, feasible, x0 = build(spec)
        if run.start is not None:
            x0 = seeded_start(seed, spec, run.start)
        solve = getattr(solvers, "solve_" + run.method)
        args = (objective, feasible, cfg, x0)
        if run.method == "cgmil":
            args += (lipschitz(spec, feasible),)
        if tracer is not None:
            solve = tracer.wrap("solvers.solve_" + run.method, solve)
            mark = tracer.instrument(objective)
        t0 = time.perf_counter()
        try:
            report = solve(*args)
        except Exception as exc:  # a failed run is recorded, not fatal
            rec.solve_s = time.perf_counter() - t0
            rec.failure = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.release(objective)
            continue
        rec.solve_s = time.perf_counter() - t0
        c = report.counters
        rec.it, rec.kf, rec.kg, rec.restarts = c.it, c.kf, c.kg, c.restarts
        rec.status = report.status.value
        if tracer is not None:
            tracer.release(objective)
            rec.failure = tracer.check_run(mark, objective, run.method, c.it)
        if rec.failure is None:
            rec.failure = gate(run, report, objective, feasible, workload.eps, gap_fn)
    return records
