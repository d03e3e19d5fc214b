"""The paper's invariants on random instances, not only the fixed grid.

Random PSD quadratics and least-squares problems with n = 1..30 and mass
b in [1e-2, 1e4], started at a vertex, an edge midpoint or an interior
point, with eps set from the instance's own scale. Every run of every
method must keep its counter identities and every traced iterate feasible;
a converged run must certify its gap by brute force; Armijo methods must
descend monotonically; and cgmil's fixed step from a valid Lipschitz bound
must never violate its sufficient-decrease inequality. The same holds on
objectives without the <f'(x), x> fast path, and the inexact methods give
the same runs, bit for bit, when each partial is probed one by one (the
reference scan of the tests' helpers) instead of read from one gradient
vector. With an optional
barrier whose denominator comes close to 0 on the simplex, every step size
an Armijo search skipped, evaluated or not, must fail its test. On
linear-fractional objectives, pseudo-convex but not convex, the methods
converge within the bound that pseudo-linearity gives on f - f*, and descend;
on a convex quadratic over a positive affine function, also pseudo-convex,
every run's certified gap bounds how far its f lies above every other run's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgrad import problems, solvers
from condgrad.core import SimplexSet, Status, step_point
from condgrad.oracle import brute_force_gap
from condgrad.problems import LeastSquaresObjective, QuadraticFormObjective
from condgrad.solvers import (
    SolverConfig,
    solve_cgm,
    solve_cgmi,
    solve_cgmil,
    solve_cgmis,
    solve_cgms,
)

from helpers import (
    ConvexOverAffineObjective,
    LinearFractionalObjective,
    f_history,
    iterates,
    reference_scan,
    vertex,
)

SOLVERS = {"cgm": solve_cgm, "cgms": solve_cgms, "cgmi": solve_cgmi,
           "cgmis": solve_cgmis, "cgmil": solve_cgmil}
GAP_RTOL = 1e3 * np.finfo(np.float64).eps

INSTANCE = {
    "kind": st.sampled_from(["quadratic", "least_squares"]),
    "n": st.integers(1, 30),
    "b": st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e),
    "start": st.sampled_from(["vertex", "edge", "interior"]),
    "seed": st.integers(0, 2 ** 32 - 1),
    # every instance is small, so also run it with states derived at each step
    "derive": st.booleans(),
}
instances = st.fixed_dictionaries(INSTANCE)
# plus 1/(<c,x> + d) with c of one sign or of mixed signs, and d set so that
# the smallest denominator on the simplex is `clearance` * b * max|c|; the
# vertex start is then the vertex where it is smallest. Down at 1e-15 that
# denominator is still positive after rounding, but within the rounding
# bound of the vertex ray, which must decline there.
barrier_instances = st.fixed_dictionaries({
    **INSTANCE,
    "barrier": st.sampled_from([None, "positive", "mixed"]),
    "clearance": st.sampled_from([1.0, 1e-3, 1e-9, 1e-13, 1e-15]),
})


def draw_start(rng, D, start):
    """A start point of kind `start` on D: a vertex, an edge midpoint, or a
    uniform interior point (a vertex again when n = 1 or the edge
    degenerates)."""
    i, j = rng.choice(D.n, size=2) if D.n > 1 else (0, 0)
    if start == "vertex" or i == j:
        return vertex(D, int(i))
    if start == "edge":
        return 0.5 * (vertex(D, int(i)) + vertex(D, int(j)))
    return D.b * rng.dirichlet(np.ones(D.n))


def build(inst):
    """(objective, Hessian, simplex, start) for one drawn instance."""
    rng = np.random.default_rng(inst["seed"])
    n, b = inst["n"], inst["b"]
    if inst["kind"] == "quadratic":
        A = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        H = A @ A.T
        make = lambda barrier: QuadraticFormObjective(H, barrier)
    else:
        m = int(rng.integers(1, 2 * n + 1))
        P = rng.standard_normal((m, n))
        H = P.T @ P
        q = b * rng.standard_normal(m)
        make = lambda barrier: LeastSquaresObjective(P, q, barrier)
    D = SimplexSet(n, b)
    x0 = draw_start(rng, D, inst["start"])
    barrier = None
    if inst.get("barrier"):
        c = rng.standard_normal(n)
        if inst["barrier"] == "positive":
            c = np.abs(c)
        # <c,x> + d is smallest at the vertex b*e_argmin(c)
        barrier = (c, b * (inst["clearance"] * float(np.abs(c).max()) - float(c.min())))
        if inst["start"] == "vertex":
            x0 = vertex(D, int(np.argmin(c)))
    return make(barrier), H, D, x0


def gap_terms(g, x, D):
    """Magnitude of the terms the gap is computed from."""
    return abs(float(g @ x)) + D.b * float(np.abs(g).max())


def scaled_eps(f, D, x0):
    """A target gap from the instance's own scale: 1% of the gap at x0,
    above the rounding of the gap's terms."""
    g0 = f.gradient(x0)
    mu0 = float(g0 @ x0) - D.b * float(g0.min())
    return max(0.01 * mu0, 1e-8 * gap_terms(g0, x0, D), 1e-12)


def solve(method, inst, twin=None):
    """Run `method` on the drawn instance, with every step traced and every
    iterate replayed from the trace; `twin(f)` may first switch off one of
    the objective's fast paths. Returns (report, steps, iterates, objective,
    simplex, eps)."""
    f, H, D, x0 = build(inst)
    eps = scaled_eps(f, D, x0)
    if twin is not None:
        twin(f)
    cfg = SolverConfig(eps=eps, max_iterations=3000)
    L = max(float(np.abs(H).sum(axis=1).max()), 1e-12)  # >= the spectral norm
    steps = []
    saved = problems.DERIVED_STATE_MIN_ENTRIES
    if inst["derive"]:
        problems.DERIVED_STATE_MIN_ENTRIES = 0
    try:
        if method == "cgmil":
            # check_descent raises DescentViolationError on a violation
            rep = solve_cgmil(f, D, cfg, x0, L, trace=steps, check_descent=True)
        else:
            rep = SOLVERS[method](f, D, cfg, x0, trace=steps)
    finally:
        problems.DERIVED_STATE_MIN_ENTRIES = saved
    return rep, steps, iterates(x0, steps, D.b, method, rep), f, D, eps


def check_invariants(method, rep, steps, points, f, D, eps):
    c, n = rep.counters, D.n
    if method in ("cgm", "cgms"):
        assert c.kg == n * c.it and c.restarts == 0
    if method in ("cgms", "cgmis"):
        assert c.kf == c.it
    if method == "cgmil":
        assert c.kf == 0
    assert len(steps) == c.it

    # every iterate, from x0 to rep.x
    for x in points:
        assert D.contains(x)

    assert rep.status in (Status.CONVERGED, Status.ITERATION_CAP)
    if rep.status is Status.CONVERGED:
        slack = GAP_RTOL * gap_terms(f.gradient(rep.x), rep.x, D)
        assert brute_force_gap(f, D, rep.x) <= eps + slack
        assert math.isfinite(rep.f) and rep.gap <= eps

    if method in ("cgm", "cgmi"):
        h = f_history(rep, steps)
        assert all(after <= before for before, after in zip(h, h[1:]))


def no_gradient_dot_point(f):
    f._gradient_dot_point_impl = lambda x, state: None


@pytest.mark.parametrize("method", list(SOLVERS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=instances)
def test_paper_invariants_on_random_instances(method, inst):
    check_invariants(method, *solve(method, inst))


@pytest.mark.parametrize("method", ["cgmi", "cgmis", "cgmil"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=instances)
def test_inexact_runs_match_with_partials_probed_one_by_one(method, inst):
    by_vector, vector_steps = solve(method, inst)[:2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "inexact_direction", reference_scan)
        by_probe, probe_steps = solve(method, inst)[:2]
    assert by_vector.counters == by_probe.counters
    assert by_vector.status is by_probe.status
    assert repr(by_vector.f) == repr(by_probe.f)
    assert repr(by_vector.gap) == repr(by_probe.gap)
    assert by_vector.x.tobytes() == by_probe.x.tobytes()
    assert repr(vector_steps) == repr(probe_steps)
    assert repr(by_vector.stages) == repr(by_probe.stages)


@pytest.mark.parametrize("method", list(SOLVERS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=instances)
def test_paper_invariants_without_the_gradient_dot_point_fast_path(method, inst):
    rep, steps, points, f, D, eps = solve(method, inst, no_gradient_dot_point)
    check_invariants(method, rep, steps, points, f, D, eps)
    # every direction search then takes one full gradient, n kg
    assert rep.counters.kg % D.n == 0
    assert f.gradient_dot_point(rep.x) is None


@pytest.mark.parametrize("method", ["cgm", "cgmi"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=barrier_instances)
def test_every_skipped_armijo_step_fails_its_test(method, inst):
    # most rejected trials are screened by the vertex ray, never evaluated;
    # evaluate each on a fresh objective and check that it fails
    f, _, D, x0 = build(inst)
    cfg = SolverConfig(eps=scaled_eps(f, D, x0), max_iterations=200)
    steps = []
    rep = SOLVERS[method](f, D, cfg, x0, trace=steps)
    assert rep.status in (Status.CONVERGED, Status.ITERATION_CAP)
    fresh = build(inst)[0]
    for s, x in zip(steps, iterates(x0, steps, D.b, method, rep)):
        x_i = float(x[s.vertex])
        z_i = x_i + (D.b - x_i)
        for k in range(s.trials - 1):
            lam = cfg.theta ** k
            f_trial = fresh.value(step_point(x, s.vertex, z_i, lam))
            assert not f_trial <= s.f_before + cfg.beta * lam * s.dir_derivative


# (<a, x> + alpha)/(<c, x> + beta) with c > 0 and beta > 0, n <= 20
fractional_instances = st.fixed_dictionaries({
    "n": st.integers(1, 20),
    "b": st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
    "start": st.sampled_from(["vertex", "edge", "interior"]),
    "seed": st.integers(0, 2 ** 32 - 1),
})


def build_fractional(inst, fast_path):
    """(objective, simplex, start, denominators and numerators at the
    vertices) for one drawn linear-fractional instance."""
    rng = np.random.default_rng(inst["seed"])
    n, b = inst["n"], inst["b"]
    a, alpha = rng.standard_normal(n), float(rng.standard_normal())
    c, beta = rng.uniform(0.1, 1.0, n), float(rng.uniform(0.1, 1.0))
    f = LinearFractionalObjective(a, alpha, c, beta, with_fast_path=fast_path)
    D = SimplexSet(n, b)
    return f, D, draw_start(rng, D, inst["start"]), beta + b * c, alpha + b * a


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast-path", "no-fast-path"])
@pytest.mark.parametrize("method", ["cgm", "cgms", "cgmi", "cgmis"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=fractional_instances)
def test_linear_fractional_runs_converge_within_the_pseudo_linear_bound(method, fast_path, inst):
    # <f'(x), x - y> = (D(y)/D(x)) (f(x) - f(y)) for the denominator D, so
    # at the best vertex y*: f(x) - f* <= gap(x) D(x) / min_i D(b e_i)
    f, D, x0, den, num = build_fractional(inst, fast_path)
    eps = 1e-3
    steps = []
    rep = SOLVERS[method](f, D, SolverConfig(eps=eps, max_iterations=10_000), x0, trace=steps)
    assert rep.status is Status.CONVERGED and rep.gap <= eps
    for x in iterates(x0, steps, D.b, method, rep):
        assert D.contains(x)
    fstar = float((num / den).min())  # f is minimized at a vertex
    gap = brute_force_gap(f, D, rep.x)
    ratio = (float(np.dot(f.c, rep.x)) + f.beta) / float(den.min())
    slack = GAP_RTOL * (abs(rep.f) + abs(fstar) + gap_terms(f.gradient(rep.x), rep.x, D) * ratio)
    assert gap <= eps + slack
    assert rep.f - fstar <= gap * ratio + slack
    if method in ("cgm", "cgmi"):
        h = f_history(rep, steps)
        assert all(after <= before for before, after in zip(h, h[1:]))


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast-path", "no-fast-path"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=fractional_instances)
def test_cgmil_descends_on_linear_fractional_objectives(fast_path, inst):
    # Hessian -(a c^T + c a^T)/D^2 + 2 N c c^T/D^3 for the numerator N and
    # denominator D, so its spectral norm is at most L on the simplex. The
    # fixed step from L is tiny, so the run is capped and checks descent only.
    f, D, x0, den, num = build_fractional(inst, fast_path)
    a, c = np.linalg.norm(f.a), np.linalg.norm(f.c)
    d_min, n_max = float(den.min()), float(np.abs(num).max())
    L = 2.0 * a * c / d_min ** 2 + 2.0 * n_max * c * c / d_min ** 3
    steps = []
    # check_descent raises DescentViolationError on a violation
    rep = solve_cgmil(f, D, SolverConfig(eps=1e-3, max_iterations=200), x0, L,
                      trace=steps, check_descent=True)
    assert rep.status in (Status.CONVERGED, Status.ITERATION_CAP)
    assert rep.counters.kf == 0
    iterates(x0, steps, D.b, "cgmil", rep)
    h = f_history(rep, steps)
    assert all(after <= before for before, after in zip(h, h[1:]))


# (0.5 x^T Q x + 1)/(<c, x> + beta) with Q = A^T A/n + 0.1 I, c > 0 and
# beta > 0, n <= 8
convex_over_affine_instances = st.fixed_dictionaries({
    "n": st.integers(1, 8),
    "b": st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
    "start": st.sampled_from(["vertex", "edge", "interior"]),
    "seed": st.integers(0, 2 ** 32 - 1),
})


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast-path", "no-fast-path"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(inst=convex_over_affine_instances)
def test_convex_over_affine_runs_stay_within_the_pseudo_convex_bound(fast_path, inst):
    # <f'(x), x - y> >= (D(y)/D(x)) (f(x) - f(y)) for the denominator D, so
    # f(x) - f(y) <= gap(x) D(x) / min_i D(b e_i) for every feasible y; y is
    # the final point of the run with the lowest f, capped or not
    rng = np.random.default_rng(inst["seed"])
    n, b = inst["n"], inst["b"]
    A = rng.standard_normal((n, n))
    Q = A.T @ A / n + 0.1 * np.eye(n)
    c, beta = rng.uniform(0.1, 1.0, n), float(rng.uniform(0.1, 1.0))
    D = SimplexSet(n, b)
    x0 = draw_start(rng, D, inst["start"])
    cfg = SolverConfig(eps=1e-3, max_iterations=3000)
    runs = {}
    for method in ("cgm", "cgms", "cgmi", "cgmis"):
        f = ConvexOverAffineObjective(Q, c, beta, with_fast_path=fast_path)
        steps = []
        rep = SOLVERS[method](f, D, cfg, x0, trace=steps)
        assert rep.status in (Status.CONVERGED, Status.ITERATION_CAP)
        for x in iterates(x0, steps, D.b, method, rep):
            assert D.contains(x)
        if method in ("cgm", "cgmi"):
            h = f_history(rep, steps)
            assert all(after <= before for before, after in zip(h, h[1:]))
        runs[method] = rep
    f_best = min(rep.f for rep in runs.values())
    d_min = beta + b * float(c.min())
    for method, rep in runs.items():
        gap = brute_force_gap(f, D, rep.x)
        ratio = (float(np.dot(c, rep.x)) + beta) / d_min
        slack = GAP_RTOL * (abs(rep.f) + abs(f_best)
                            + gap_terms(f.gradient(rep.x), rep.x, D) * ratio)
        assert rep.f - f_best <= gap * ratio + slack, method
        if rep.status is Status.CONVERGED:
            assert gap <= cfg.eps + slack
