"""The paper's invariants on random instances, not only the fixed grid.

Random PSD quadratics and least-squares problems with n = 1..30 and mass
b in [1e-2, 1e4], started at a vertex, an edge midpoint or an interior
point, with eps set from the instance's own scale. Every run of every
method must keep its counter identities and every traced iterate feasible;
a converged run must certify its gap by brute force; Armijo methods must
descend monotonically; and cgmil's fixed step from a valid Lipschitz bound
must never violate its sufficient-decrease inequality.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgrad import problems
from condgrad.core import SimplexSet, Status
from condgrad.oracle import brute_force_gap
from condgrad.problems import LeastSquaresObjective, QuadraticFormObjective
from condgrad.solvers import (
    SolverConfig,
    Trace,
    solve_cgm,
    solve_cgmi,
    solve_cgmil,
    solve_cgmis,
    solve_cgms,
)

SOLVERS = {"cgm": solve_cgm, "cgms": solve_cgms, "cgmi": solve_cgmi,
           "cgmis": solve_cgmis, "cgmil": solve_cgmil}
GAP_RTOL = 1e3 * np.finfo(np.float64).eps

instances = st.fixed_dictionaries({
    "kind": st.sampled_from(["quadratic", "least_squares"]),
    "n": st.integers(1, 30),
    "b": st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e),
    "start": st.sampled_from(["vertex", "edge", "interior"]),
    "seed": st.integers(0, 2 ** 32 - 1),
    # every instance is small, so also run it with states derived at each step
    "derive": st.booleans(),
})


def build(inst):
    """(objective, Hessian, simplex, start) for one drawn instance."""
    rng = np.random.default_rng(inst["seed"])
    n, b = inst["n"], inst["b"]
    if inst["kind"] == "quadratic":
        A = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        H = A @ A.T
        f = QuadraticFormObjective(H)
    else:
        m = int(rng.integers(1, 2 * n + 1))
        P = rng.standard_normal((m, n))
        H = P.T @ P
        f = LeastSquaresObjective(P, b * rng.standard_normal(m))
    D = SimplexSet(n, b)
    i, j = rng.choice(n, size=2) if n > 1 else (0, 0)
    if inst["start"] == "vertex" or i == j:
        x0 = D.vertex(int(i))
    elif inst["start"] == "edge":
        x0 = 0.5 * (D.vertex(int(i)) + D.vertex(int(j)))
    else:
        x0 = b * rng.dirichlet(np.ones(n))
    return f, H, D, x0


def gap_terms(g, x, D):
    """Magnitude of the terms the gap is computed from."""
    return abs(float(g @ x)) + D.b * float(np.abs(g).max())


@pytest.mark.parametrize("method", list(SOLVERS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=instances)
def test_paper_invariants_on_random_instances(method, inst):
    f, H, D, x0 = build(inst)
    g0 = f.gradient(x0)
    mu0 = float(g0 @ x0) - D.b * float(g0.min())
    eps = max(0.01 * mu0, 1e-8 * gap_terms(g0, x0, D), 1e-12)
    cfg = SolverConfig(eps=eps, max_iterations=3000)
    L = max(float(np.abs(H).sum(axis=1).max()), 1e-12)  # >= the spectral norm
    trace = Trace(collect_points=True)
    saved = problems.DERIVED_STATE_MIN_ENTRIES
    if inst["derive"]:
        problems.DERIVED_STATE_MIN_ENTRIES = 0
    try:
        if method == "cgmil":
            # check_descent raises DescentViolationError on a violation
            rep = solve_cgmil(f, D, cfg, x0, L, trace=trace, check_descent=True)
        else:
            rep = SOLVERS[method](f, D, cfg, x0, trace=trace)
    finally:
        problems.DERIVED_STATE_MIN_ENTRIES = saved

    c, n = rep.counters, D.n
    if method in ("cgm", "cgms"):
        assert c.kg == n * c.it and c.restarts == 0
    if method in ("cgms", "cgmis"):
        assert c.kf == c.it
    if method == "cgmil":
        assert c.kf == 0
    assert len(trace.steps) == c.it

    for s in trace.steps:
        assert D.contains(s.point)
    assert D.contains(rep.x)

    assert rep.status in (Status.CONVERGED, Status.ITERATION_CAP)
    if rep.status is Status.CONVERGED:
        slack = GAP_RTOL * gap_terms(f.gradient(rep.x), rep.x, D)
        assert brute_force_gap(f, D, rep.x) <= eps + slack
        assert math.isfinite(rep.f) and rep.gap <= eps

    if method in ("cgm", "cgmi"):
        h = rep.f_history
        assert all(after <= before for before, after in zip(h, h[1:]))
