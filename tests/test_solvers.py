"""Solver behavior: counter identities, step rules, stages, determinism."""

import math

import numpy as np
import pytest

from condgrad import solvers
from condgrad.core import (
    MAX_BACKTRACKS,
    DescentViolationError,
    LineSearchError,
    NonFiniteOracleError,
    SimplexSet,
    SmoothObjective,
    Status,
)
from condgrad.oracle import brute_force_gap
from condgrad.problems import (
    ProblemSpec,
    QuadraticFormObjective,
    build_instance,
    lipschitz_upper_bound,
    make_objective,
)
from condgrad.solvers import (
    FoundDirection,
    SolverConfig,
    _gap,
    inexact_direction,
    solve_cgm,
    solve_cgmi,
    solve_cgmil,
    solve_cgmis,
    solve_cgms,
)

from helpers import (
    CallableObjective,
    LinearObjective,
    f_history,
    iterates,
    reference_scan,
    stages,
)

S1N5 = ProblemSpec(series=1, n=5)
SOLVERS = {"cgm": solve_cgm, "cgms": solve_cgms, "cgmi": solve_cgmi,
           "cgmis": solve_cgmis, "cgmil": solve_cgmil}


def run(method_fn, spec=S1N5, cfg=None, trace=None, **kw):
    obj, D, x0 = build_instance(spec)
    return method_fn(obj, D, cfg or SolverConfig(), x0, trace=trace, **kw)


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    for field, bad in (("beta", 0.0), ("beta", 1.0), ("theta", -0.1),
                       ("sigma", 1.5), ("nu", 0.0), ("tau0", 1.0),
                       ("eps", 0.0), ("eps", -1.0), ("delta0", 0.0),
                       ("max_iterations", -1), ("max_iterations", 2.5),
                       ("max_iterations", True), ("max_iterations", 3.0),
                       # real fields take finite Python or float64 reals, not
                       # bools, strings, float32 or ints beyond the float range
                       ("eps", True), ("delta0", True), ("delta0", "1"),
                       ("delta0", np.float32(1.0)), ("eps", 10 ** 400)):
        with pytest.raises(ValueError):
            SolverConfig(**{field: bad})
    assert SolverConfig(max_iterations=np.int64(7)).max_iterations == 7
    cfg = SolverConfig()
    assert (cfg.beta, cfg.theta, cfg.sigma, cfg.nu) == (0.5, 0.5, 0.9, 0.5)
    assert (cfg.eps, cfg.tau0, cfg.max_iterations) == (0.1, 0.9, 10 ** 6)


def test_infeasible_start_rejected():
    obj, D, _ = build_instance(S1N5)
    for fn in (solve_cgm, solve_cgms, solve_cgmi, solve_cgmis):
        with pytest.raises(ValueError):
            fn(obj, D, SolverConfig(), np.ones(5))
    with pytest.raises(ValueError):
        solve_cgmil(obj, D, SolverConfig(), np.ones(5), 1.0)


def test_cgmil_rejects_a_bool_lipschitz_bound():
    obj, D, x0 = build_instance(S1N5)
    with pytest.raises(ValueError):
        solve_cgmil(obj, D, SolverConfig(), x0, True)


# ---------------------------------------------------------------------------
# classic method

def test_cgm_stationary_start_converges_immediately():
    obj = QuadraticFormObjective(np.eye(2))
    D = SimplexSet(2, 10.0)
    trace = []
    rep = solve_cgm(obj, D, SolverConfig(), np.array([5.0, 5.0]), trace=trace)
    assert rep.status is Status.CONVERGED
    assert rep.counters.it == 0
    assert rep.counters.kf == 0 and rep.counters.kg == 0
    assert rep.gap == 0.0
    assert rep.f == 25.0
    assert f_history(rep, trace) == [25.0]


def test_cgm_counters_and_descent():
    trace = []
    rep = run(solve_cgm, trace=trace)
    assert rep.status is Status.CONVERGED
    assert rep.gap <= 0.1
    assert rep.counters.kg == 5 * rep.counters.it
    assert rep.counters.kf == sum(s.trials for s in trace)
    assert rep.counters.restarts == 0
    # one stage without a tolerance, and the exact gap known at every step
    assert all(s.stage == 1 and math.isnan(s.delta) and s.mu == -s.dir_derivative
               for s in trace)
    # monotone descent, strictly at every accepted step
    h = f_history(rep, trace)
    assert len(h) == rep.counters.it + 1
    assert all(b <= a for a, b in zip(h, h[1:]))


@pytest.mark.parametrize("theta, beta", [(0.5, 0.5), (0.3, 0.1), (0.9, 0.9)])
@pytest.mark.parametrize("series", [1, 2, 3, 4])
@pytest.mark.parametrize("solve", [solve_cgm, solve_cgmi], ids=["cgm", "cgmi"])
def test_screened_line_search_matches_evaluating_every_trial(series, solve, theta, beta):
    # the same run with the vertex ray switched off evaluates every trial
    spec = ProblemSpec(series=series, n=10, m=5 if series > 2 else None)
    cfg = SolverConfig(eps=0.01, max_iterations=500, theta=theta, beta=beta)
    runs = []
    for screen in (True, False):
        obj, D, x0 = build_instance(spec)
        if not screen:
            obj._vertex_ray = lambda *args: None
        trace = []
        rep = solve(obj, D, cfg, x0, trace=trace)
        runs.append((rep, trace, obj.kf))
    (a, steps_a, kf_a), (b, steps_b, kf_b) = runs
    assert repr(steps_a) == repr(steps_b)
    assert a.counters == b.counters and a.status is b.status
    assert repr((a.f, a.gap)) == repr((b.f, b.gap)) and a.x.tobytes() == b.x.tobytes()
    if theta == 0.9:
        # searches run past rung MAX_BACKTRACKS, onto the rungs the ladder
        # adds for theta = 0.9, and are screened there too
        assert max(s.trials for s in steps_b) > MAX_BACKTRACKS + 1
    # the run charges every trial; the objective counts evaluated ones only
    assert kf_b == b.counters.kf + 1
    assert kf_a < kf_b / 2


@pytest.mark.parametrize("series", [1, 2, 3, 4])
@pytest.mark.parametrize("solve", [solve_cgm, solve_cgmi], ids=["cgm", "cgmi"])
def test_armijo_methods_converge_with_a_backtracking_ratio_of_0_9(series, solve):
    # near the solution these runs need steps below 0.9^60 ~ 1.8e-3, which
    # the ladder for theta = 0.9 reaches instead of ending its search there
    spec = ProblemSpec(series=series, n=10, m=5 if series > 2 else None)
    obj, D, x0 = build_instance(spec)
    trace = []
    rep = solve(obj, D, SolverConfig(eps=0.01, theta=0.9, beta=0.1), x0, trace=trace)
    assert rep.status is Status.CONVERGED and rep.gap <= 0.01
    assert max(s.trials for s in trace) > MAX_BACKTRACKS + 1
    fresh = make_objective(spec)
    assert abs(brute_force_gap(fresh, D, rep.x) - rep.gap) <= 1e-9


@pytest.mark.parametrize("x0", [[8.0, 2.0, -0.0], [8.0, 2.0, -1e-13]])
def test_a_vertex_step_is_one_minus_lam_times_x_off_the_vertex(x0):
    # off the chosen vertex 1 the step is (1-lam)*x alone, bit for bit, so
    # a -0.0 coordinate stays -0.0, as does 0*(-1e-13) at a full step
    P = np.array([[1.0, 0.1, 3.0], [0.1, 0.0, 3.0], [3.0, 3.0, 1.0]])
    for solve in (solve_cgm, solve_cgms):
        trace = []
        rep = solve(QuadraticFormObjective(P), SimplexSet(3, 10.0),
                    SolverConfig(max_iterations=1), np.array(x0), trace=trace)
        (s,) = trace
        assert s.vertex == 1
        lam1 = 1.0 - s.lam
        expected = [lam1 * x0[0], lam1 * x0[1] + s.lam * 10.0, lam1 * x0[2]]
        assert rep.x.tobytes() == np.array(expected).tobytes()
        assert np.signbit(rep.x[2])


def test_cgm_iteration_cap():
    obj, D, x0 = build_instance(S1N5)
    rep = solve_cgm(obj, D, SolverConfig(max_iterations=0), x0)
    assert rep.status is Status.ITERATION_CAP
    assert rep.counters.it == 0
    assert rep.counters.kg == 0
    assert rep.gap > 0.1


def test_cgm_deterministic():
    a = run(solve_cgm)
    b = run(solve_cgm)
    assert a.counters == b.counters
    assert np.array_equal(a.x, b.x)
    assert a.f == b.f and a.gap == b.gap


# ---------------------------------------------------------------------------
# adaptive step, exact oracle

def test_cgms_counter_identities():
    trace = []
    rep = run(solve_cgms, trace=trace)
    assert rep.status is Status.CONVERGED
    assert rep.counters.kf == rep.counters.it
    assert rep.counters.kg == 5 * rep.counters.it
    # the seed evaluation exists on the raw oracle but not in the run cost
    obj, D, x0 = build_instance(S1N5)
    raw = solve_cgms(obj, D, SolverConfig(), x0)
    assert obj.kf == raw.counters.it + 1


def test_cgms_failed_acceptance_still_advances():
    # one step on a sharp quadratic: the 0.9 step overshoots, the test fails,
    # yet the point moves and the next step shrinks to sigma*tau0
    obj = QuadraticFormObjective(np.eye(2))
    D = SimplexSet(2, 10.0)
    x0 = np.array([9.0, 1.0])
    trace = []
    rep = solve_cgms(obj, D, SolverConfig(max_iterations=2), x0, trace=trace)
    first = trace[0]
    assert first.lam == 0.9
    assert first.accepted is False
    assert not np.array_equal(iterates(x0, trace, D.b, "cgms", rep)[1], x0)
    assert trace[1].lam == 0.9 * 0.9


def test_cgms_step_ceiling_law():
    trace = []
    rep = run(solve_cgms, trace=trace)
    failures = 0
    for s in trace:
        assert s.lam == 0.9 * 0.9 ** failures
        if not s.accepted:
            failures += 1


# ---------------------------------------------------------------------------
# inexact direction search

def _third_point():
    """(g, <g, x>, b) for f'(x) = (3, -1, 2) at the barycenter x of the
    3-simplex of mass 10."""
    g = np.array([3.0, -1.0, 2.0])
    return g, float(np.dot(g, (10.0 / 3.0) * np.ones(3))), 10.0


def test_inexact_direction_hand_example():
    res, cursor = inexact_direction(*_third_point(), 1.0, 0)
    assert isinstance(res, FoundDirection)
    assert res.index == 1
    assert res.descent == pytest.approx(70.0 / 3.0, rel=1e-14)
    assert res == (1, res.descent, 2)  # two probes
    assert cursor == 2


def test_inexact_direction_cursor_persistence():
    res, cursor = inexact_direction(*_third_point(), 1.0, 0)
    res2, cursor2 = inexact_direction(*_third_point(), 1.0, cursor)
    # scan resumes past the previous hit: probes 2, 0, then finds 1 again
    assert isinstance(res2, FoundDirection)
    assert res2.index == 1 and res2.tests == 3
    assert cursor2 == 2


def test_inexact_direction_exhausted_yields_exact_gap():
    res, cursor = inexact_direction(*_third_point(), 30.0, 1)
    assert isinstance(res, float)
    assert res == pytest.approx(70.0 / 3.0, rel=1e-14)
    assert cursor == 1  # unchanged after a full failed cycle


@pytest.mark.parametrize("method", ["cgmi", "cgmis", "cgmil"])
def test_the_probe_charge_follows_the_declaration(method):
    spec = ProblemSpec(series=2, n=12)
    runs = []
    for cheap in (True, False):
        obj, D, x0 = build_instance(spec)
        obj.cheap_gradient_dot_point = cheap
        trace = []
        cfg = SolverConfig(eps=0.01, max_iterations=3000)
        if method == "cgmil":
            rep = solve_cgmil(obj, D, cfg, x0, lipschitz_upper_bound(spec, D), trace=trace)
        else:
            rep = SOLVERS[method](obj, D, cfg, x0, trace=trace)
        runs.append((rep, trace))
    (a, steps_a), (b, steps_b) = runs
    assert repr((a.f, a.gap, steps_a)) == repr((b.f, b.gap, steps_b))
    assert a.x.tobytes() == b.x.tobytes()
    assert (a.counters.it, a.counters.kf, a.counters.restarts) == \
        (b.counters.it, b.counters.kf, b.counters.restarts)
    # n for delta0 and per restart; per search its probes when <f'(x), x>
    # is declared cheap, and n otherwise
    n, c = spec.n, b.counters
    assert a.counters.kg == n * (1 + c.restarts) + sum(s.tests for s in steps_a)
    assert c.kg == n * (1 + c.restarts + c.it)
    assert a.counters.kg < c.kg


def test_inexact_direction_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        inexact_direction(*_third_point(), 0.0, 0)


def _scripted_scan(scan, g, delta_p, cursor, x=None):
    """`scan` (inexact_direction or reference_scan) with f'(x) = g at x (the
    barycenter by default) on the simplex of mass 10: the fields that
    describe its result. A full failed cycle returns a float, the gap, and
    takes n probes; gaps compare by value (-0.0 equals 0.0), and a NaN gap
    reads "nan"."""
    g = np.asarray(g, dtype=np.float64)
    x = SimplexSet(g.size, 10.0).barycenter() if x is None else np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        res, cursor = scan(g, float(np.dot(g, x)), 10.0, delta_p, cursor)
    if isinstance(res, FoundDirection):
        return (type(res).__name__, res.index, repr(res.descent), res.tests, cursor, None)
    gap = "nan" if math.isnan(res) else res
    return (type(res).__name__, None, None, g.size, cursor, gap)


def _scan_cases():
    """(g, delta_p, cursor, x): random gradients at random points, then
    adversarial ones. The descents are <g, x> - b g_i, so one NaN in
    <g, x> makes them all NaN."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 2, 5, 13):
        for _ in range(25):
            cases.append((rng.standard_normal(n), float(rng.uniform(0.5, 15.0)),
                          int(rng.integers(-2 * n, 3 * n)), 10.0 * rng.dirichlet(np.ones(n))))
    nan, inf = math.nan, math.inf
    for cursor in (0, 1, 2, 3, 4, 5, 9, -1, -5):
        cases += [
            ([nan, 0.1, nan, -0.2], 2.0, cursor, None),        # a NaN partial: all NaN
            ([inf, -inf, 0.3, 0.0], 2.0, cursor, None),        # <g, x> NaN: all NaN
            ([inf, 1.0, -1.0, 0.0], 2.0, cursor, None),        # NaN and inf descents
            ([inf, 1.0, -1.0, 0.0], 2.0, cursor, [0.0, 0.0, 5.0, 5.0]),  # inf * 0: all NaN
            ([-inf, 1.0, -1.0, 0.0], 2.0, cursor, None),       # NaN and -inf descents
            ([1e308, 1.0, -1.0, 0.0], 2.0, cursor, None),      # <g, x> overflows
            ([0.5, 0.5, 0.5, 0.5], 1.0, cursor, None),         # all equal, exhausted
            ([1.0, 1.0, 1.0, 1.0, 5.0], 1.0, cursor, None),    # four equal hits
            ([0.0, 0.0, -1.0, 0.0], 5.0, cursor, None),        # one hit, at 2
            ([0.0, -0.0, 0.0, 0.0], 1.0, cursor, [0.0, 0.0, 0.0, 10.0]),  # +0.0 and -0.0
        ]
    # n = 1: x = b e_0, so every descent is 0 or NaN and every cycle exhausted
    cases += [([v], 2.0, c, None) for v in (-1.0, 1.0, 0.0, -0.0, nan, inf) for c in (0, 1, 7, -3)]
    return cases


def test_reading_partials_from_a_vector_matches_probing_them_one_by_one():
    kinds = set()
    for g, delta_p, cursor, x in _scan_cases():
        by_vector = _scripted_scan(inexact_direction, g, delta_p, cursor, x)
        by_probe = _scripted_scan(reference_scan, g, delta_p, cursor, x)
        assert by_vector == by_probe, (g, delta_p, cursor, x)
        if by_vector[0] == "float":
            # an exhausted cycle's gap is NaN exactly when some descent is
            g = np.asarray(g)
            point = SimplexSet(g.size, 10.0).barycenter() if x is None else np.asarray(x)
            with np.errstate(all="ignore"):
                nan_descent = bool(np.isnan(float(np.dot(g, point)) - 10.0 * g).any())
            assert (by_vector[5] == "nan") == nan_descent
        kinds.add(by_vector[0])
    assert kinds == {"FoundDirection", "float"}


@pytest.mark.parametrize("scan", [inexact_direction, reference_scan],
                         ids=["vector", "probes"])
def test_inexact_scan_wraps_around_and_breaks_ties_in_cyclic_order(scan):
    # the only hit is just before the cursor: found on the last probe
    kind, index, _, tests, cursor, _ = _scripted_scan(
        scan, [0.0, 0.0, -1.0, 0.0], 5.0, 3)
    assert (kind, index, tests, cursor) == ("FoundDirection", 2, 4, 3)
    # equal hits at 0..3: the first in cyclic order from the cursor wins, and
    # a cursor outside [0, n) probes (cursor + t) % n
    for cursor, expected, probes in ((0, 0, 1), (2, 2, 1), (4, 0, 2), (6, 1, 1), (-2, 3, 1)):
        kind, index, _, tests, _, _ = _scripted_scan(
            scan, [1.0, 1.0, 1.0, 1.0, 5.0], 1.0, cursor)
        assert (kind, index, tests) == ("FoundDirection", expected, probes)
    # an exhausted cycle at a vertex with +0.0 and -0.0 partials: the gap is
    # zero whatever the cursor, which comes back unchanged, even when out of range
    for cursor in (0, 1, 2, 3, 9):
        kind, _, _, tests, back, got = _scripted_scan(
            scan, [0.0, -0.0, 0.0, 0.0], 1.0, cursor, [0.0, 0.0, 0.0, 10.0])
        assert (kind, tests, back, got) == ("float", 4, cursor, 0.0)


@pytest.mark.parametrize("series", [1, 2, 3, 4])
@pytest.mark.parametrize("method", ["cgmi", "cgmis", "cgmil"])
def test_inexact_runs_match_the_reference_scan(series, method, monkeypatch):
    spec = ProblemSpec(series=series, n=12, m=6 if series > 2 else None)
    runs = []
    for scan in (inexact_direction, reference_scan):
        monkeypatch.setattr(solvers, "inexact_direction", scan)
        obj, D, x0 = build_instance(spec)
        trace = []
        cfg = SolverConfig(eps=0.01, max_iterations=3000)
        if method == "cgmil":
            rep = solve_cgmil(obj, D, cfg, x0, lipschitz_upper_bound(spec, D), trace=trace)
        else:
            rep = SOLVERS[method](obj, D, cfg, x0, trace=trace)
        runs.append((rep, trace, obj.kg))
    (a, steps_a, kg_a), (b, steps_b, kg_b) = runs
    assert a.counters == b.counters and a.status is b.status
    assert repr((a.f, a.gap)) == repr((b.f, b.gap)) and a.x.tobytes() == b.x.tobytes()
    # the steps hold the stages: their tolerances and the gaps that closed them
    assert repr(steps_a) == repr(steps_b)
    # the objective's raw kg counts what it evaluated: one gradient per iterate
    assert kg_a == kg_b == spec.n * (a.counters.it + 1)


# ---------------------------------------------------------------------------
# inexact method with Armijo

def _expected_delta0(spec, cfg):
    obj, D, x0 = build_instance(spec)
    g = obj.gradient(x0)
    mu0 = float(np.dot(g, x0)) - D.b * float(np.min(g))
    return max(cfg.eps, cfg.nu * mu0)


def _check_stages(trace, rep, cfg, delta0):
    """A converged run's stages, from its trace: restarts + 1 of them, stage
    p with tolerance nu**p * delta0 and closed by a failed cycle that
    certified a gap below it, the last one at most eps, and iteration counts
    that add up to the run's."""
    assert rep.status is Status.CONVERGED
    summary = stages(trace, rep)
    assert len(summary) == rep.counters.restarts + 1 >= trace[-1].stage
    for s in trace:
        assert s.delta == cfg.nu ** s.stage * delta0
    for p, (iterations, exit_gap, _) in enumerate(summary, 1):
        assert iterations == sum(s.stage == p for s in trace)
        assert exit_gap < cfg.nu ** p * delta0
    assert summary[-1][1] == rep.gap <= cfg.eps
    assert sum(iterations for iterations, _, _ in summary) == rep.counters.it


def test_cgmi_stage_structure_and_descent_bound():
    cfg = SolverConfig()
    trace = []
    rep = run(solve_cgmi, cfg=cfg, trace=trace)
    assert rep.status is Status.CONVERGED
    delta0 = _expected_delta0(S1N5, cfg)
    _check_stages(trace, rep, cfg, delta0)
    # kg: n for delta0, each step's probes, and n per cycle that restarts
    assert rep.counters.kg == 5 * (1 + rep.counters.restarts) + sum(s.tests for s in trace)
    # per-step decrease of at least beta*lam*delta
    h = f_history(rep, trace)
    for k, s in enumerate(trace):
        assert h[k] - h[k + 1] >= cfg.beta * s.lam * s.delta - 1e-9
    # gradient work stays below the exact-oracle cost
    assert rep.counters.kg < 5 * rep.counters.it
    # monotone descent
    assert all(b <= a for a, b in zip(h, h[1:]))


def test_cgmi_respects_explicit_delta0():
    cfg = SolverConfig(delta0=8.0)
    trace = []
    rep = run(solve_cgmi, cfg=cfg, trace=trace)
    _check_stages(trace, rep, cfg, 8.0)
    # no gap is computed at x0 when delta0 is given
    assert math.isnan(trace[0].mu)


def test_cgmi_far_above_the_gap_restarts_until_the_gap_reaches_a_stage():
    # with a huge first tolerance and nu close to 1, over a thousand stages
    # fail at x0 without a step; the schedule still ends the run
    cfg = SolverConfig(delta0=1e6, nu=0.99)
    trace = []
    rep = run(solve_cgmi, cfg=cfg, trace=trace)
    _check_stages(trace, rep, cfg, 1e6)
    assert rep.counters.restarts > 1000 and trace[0].stage > 1000


@pytest.mark.parametrize("method", ["cgmi", "cgmis"])
def test_nu_next_to_one_ends_the_run_in_bounded_work(method):
    # some 1.6e10 stages fail without a step; each restart jumps to the first
    # stage that the certified gap reaches, so the run does the work of one
    # with a few stages (this test hangs when every stage rescans g)
    cfg = SolverConfig(delta0=1e6, nu=1 - 1e-9)
    rep = run(SOLVERS[method], cfg=cfg)
    assert rep.status is Status.CONVERGED and rep.gap <= cfg.eps
    assert rep.counters.restarts > 10 ** 10
    assert rep.counters.kg >= 5 * rep.counters.restarts


def test_cgmi_iteration_cap_reports_certified_gap():
    obj, D, x0 = build_instance(S1N5)
    rep = solve_cgmi(obj, D, SolverConfig(max_iterations=3), x0)
    assert rep.status is Status.ITERATION_CAP
    assert rep.counters.it == 3
    fresh = make_objective(S1N5)
    assert rep.gap == pytest.approx(brute_force_gap(fresh, D, rep.x), rel=1e-12)


@pytest.mark.parametrize("method", list(SOLVERS))
def test_a_cap_at_the_converged_count_reports_the_same_converged_run(method):
    # the cap reads the gap of the gradient at x, and a gap at most eps
    # there is convergence, whatever the method
    kw = {}
    if method == "cgmil":
        kw["lipschitz"] = lipschitz_upper_bound(S1N5, build_instance(S1N5)[1])
    free = run(SOLVERS[method], **kw)
    assert free.status is Status.CONVERGED
    capped = run(SOLVERS[method], cfg=SolverConfig(max_iterations=free.counters.it), **kw)
    assert capped.status is Status.CONVERGED
    assert capped.counters == free.counters
    assert repr((capped.f, capped.gap)) == repr((free.f, free.gap))
    assert capped.x.tobytes() == free.x.tobytes()


# ---------------------------------------------------------------------------
# fixed-step variant

def test_cgmil_step_formula():
    # beta=0.5, L=2, b=10 gives lam_bar = 2*0.5/(2*200) = 0.0025; with
    # delta0=2 the first stage tolerance is 1, so every stage-1 step is
    # exactly 0.0025
    obj = QuadraticFormObjective(np.eye(2))  # true L = 1 <= 2, bound is valid
    D = SimplexSet(2, 10.0)
    cfg = SolverConfig(delta0=2.0)
    trace = []
    rep = solve_cgmil(obj, D, cfg, np.array([9.0, 1.0]), 2.0, trace=trace)
    assert rep.status is Status.CONVERGED
    stage1 = [s for s in trace if s.stage == 1]
    assert stage1 and all(s.lam == 0.0025 for s in stage1)
    assert rep.counters.kf == 0


def test_cgmil_descent_check_holds_with_valid_bound():
    spec = S1N5
    obj, D, x0 = build_instance(spec)
    L = lipschitz_upper_bound(spec, D)
    trace = []
    rep = solve_cgmil(obj, D, SolverConfig(), x0, L, trace=trace, check_descent=True)
    assert rep.status is Status.CONVERGED
    assert rep.counters.kf == 0  # debug evaluations are never charged
    h = f_history(rep, trace)
    assert h is not None and all(b <= a for a, b in zip(h, h[1:]))


def test_cgmil_descent_check_raises_typed_error_with_too_small_bound():
    obj, D, x0 = build_instance(S1N5)
    with pytest.raises(DescentViolationError) as err:
        solve_cgmil(obj, D, SolverConfig(), x0, 1e-3, check_descent=True)
    exc = err.value
    assert np.array_equal(exc.point, x0)  # violated at iteration 0
    assert exc.step == 1.0
    assert exc.f_after > exc.f_before == obj.value(x0)


def test_cgmil_rejects_bad_lipschitz():
    obj, D, x0 = build_instance(S1N5)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_cgmil(obj, D, SolverConfig(), x0, bad)


# ---------------------------------------------------------------------------
# combined variant

def test_cgmis_counter_identity_and_stages():
    cfg = SolverConfig()
    trace = []
    rep = run(solve_cgmis, cfg=cfg, trace=trace)
    assert rep.status is Status.CONVERGED
    assert rep.counters.kf == rep.counters.it
    assert rep.counters.kg < 5 * rep.counters.it
    _check_stages(trace, rep, cfg, _expected_delta0(S1N5, cfg))


def _replay_cgmis_steps(trace, rep, cfg):
    """Re-derive every recorded step size from the stage rules; returns the
    list of (expected lam, observed lam)."""
    stage_seq = range(1, rep.counters.restarts + 2)
    records = {p: [s for s in trace if s.stage == p] for p in stage_seq}
    pairs = []
    ceiling = cfg.tau0
    lam = ceiling
    for p in stage_seq:
        failures = 0
        for s in records[p]:
            pairs.append((lam, s.lam))
            if not s.accepted:
                failures += 1
                lam = ceiling * cfg.sigma ** failures
        # restart: the next stage starts from min(tau0, lam/sigma)
        ceiling = min(cfg.tau0, lam / cfg.sigma)
        lam = ceiling
    return pairs


def test_cgmis_step_rule_replays_exactly():
    cfg = SolverConfig()
    trace = []
    rep = run(solve_cgmis, cfg=cfg, trace=trace)
    pairs = _replay_cgmis_steps(trace, rep, cfg)
    assert len(pairs) == rep.counters.it
    for expected, observed in pairs:
        assert observed == expected
        assert observed <= cfg.tau0


def test_cgmis_restart_resets_step_ceiling():
    cfg = SolverConfig()
    trace = []
    rep = run(solve_cgmis, cfg=cfg, trace=trace)
    assert rep.counters.restarts >= 1
    # locate a stage boundary with steps on both sides and check the reset
    by_stage = {}
    for s in trace:
        by_stage.setdefault(s.stage, []).append(s)
    stages_with_steps = sorted(by_stage)
    checked = 0
    for prev_p, next_p in zip(stages_with_steps, stages_with_steps[1:]):
        if next_p != prev_p + 1:
            continue  # zero-iteration stage in between; covered by the replay
        last = by_stage[prev_p][-1]
        lam_end = last.lam
        if not last.accepted:
            # the failure update fired after the recorded step
            failures = sum(1 for s in by_stage[prev_p] if not s.accepted)
            start_ceiling = by_stage[prev_p][0].lam
            lam_end = start_ceiling * cfg.sigma ** failures
        assert by_stage[next_p][0].lam == min(cfg.tau0, lam_end / cfg.sigma)
        checked += 1
    assert checked >= 1


# ---------------------------------------------------------------------------
# cross-method properties

ALL_METHODS = [
    ("cgm", solve_cgm, {}),
    ("cgms", solve_cgms, {}),
    ("cgmi", solve_cgmi, {}),
    ("cgmis", solve_cgmis, {}),
]


@pytest.mark.parametrize("name,fn,kw", ALL_METHODS)
def test_every_iterate_feasible_and_convergence_honest(name, fn, kw):
    spec = ProblemSpec(series=3, n=5, m=2)
    obj, D, x0 = build_instance(spec)
    trace = []
    rep = fn(obj, D, SolverConfig(), x0, trace=trace, **kw)
    assert rep.status is Status.CONVERGED
    for x in iterates(x0, trace, D.b, name, rep):  # from x0 to rep.x
        assert D.contains(x)
    # post-hoc certification with a fresh oracle
    fresh = make_objective(spec)
    mu = brute_force_gap(fresh, D, rep.x)
    assert mu <= 0.1 * (1.0 + 1e-9) + 1e-12
    assert abs(mu - rep.gap) <= 1e-9 * (1.0 + abs(mu))


@pytest.mark.parametrize("name,fn,kw", ALL_METHODS)
def test_reports_are_deterministic(name, fn, kw):
    a = run(fn, **kw)
    b = run(fn, **kw)
    assert a.counters == b.counters
    assert np.array_equal(a.x, b.x)
    assert (a.f, a.gap, a.status) == (b.f, b.gap, b.status)


def _finite_only_at(x0, g0):
    """<g0, x> at x0 and NaN everywhere else, derivatives included."""
    at0 = lambda x: np.array_equal(x, x0)
    return CallableObjective(
        x0.size,
        fn=lambda x: float(np.dot(g0, x)) if at0(x) else math.nan,
        partial_fn=lambda x, i: float(g0[i]) if at0(x) else math.nan,
        with_fast_path=True,
    )


FIVE_METHODS = [
    ("cgm", solve_cgm, ()),
    ("cgms", solve_cgms, ()),
    ("cgmi", solve_cgmi, ()),
    ("cgmis", solve_cgmis, ()),
    ("cgmil", solve_cgmil, (1.0,)),
]


@pytest.mark.parametrize("name,fn,extra", FIVE_METHODS)
def test_no_report_with_non_finite_f_or_gap(name, fn, extra):
    # past x0 every output is NaN: no run may certify a gap from an all-NaN
    # cycle (a NaN that loses every comparison would leave it at -inf)
    x0 = np.ones(3)
    obj = _finite_only_at(x0, np.array([1.0, 2.0, 3.0]))
    D = SimplexSet(3, 3.0)
    try:
        rep = fn(obj, D, SolverConfig(max_iterations=50), x0, *extra)
    except NonFiniteOracleError as exc:
        assert D.contains(exc.point)
        return
    assert math.isfinite(rep.f) and math.isfinite(rep.gap), \
        f"{name} reported {rep.status.value} with f = {rep.f}, gap = {rep.gap}"


def test_a_failed_line_search_is_charged_its_trials():
    # beta near 1 leaves the Armijo search on series 2 at n = 20 no step
    # after 35 iterations: the search that raised made 59 trials, and each
    # is charged one kf, as the trials of every search that returned are
    config = SolverConfig(beta=0.999999999, eps=1e-6, max_iterations=20000)
    objective, feasible, x0 = build_instance(ProblemSpec(series=2, n=20))
    trace = []
    with pytest.raises(LineSearchError) as caught:
        solve_cgmi(objective, feasible, config, x0, trace=trace)
    exc = caught.value
    assert (len(trace), exc.trials) == (35, 59)
    assert exc.counters.kf == sum(s.trials for s in trace) + exc.trials == 1161 + 59
    # a search whose trials were all NaN until the step rounded to zero
    for method in (solve_cgm, solve_cgmi):
        x0 = np.ones(3)
        obj = _finite_only_at(x0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(NonFiniteOracleError) as caught:
            method(obj, SimplexSet(3, 3.0), SolverConfig(), x0)
        c = caught.value.counters
        assert c.it == 0 and c.kf == caught.value.trials == obj.kf - 1 > 0


@pytest.mark.parametrize("solve", [solve_cgm, solve_cgmi])
def test_a_trial_at_minus_inf_is_rejected_as_one_at_nan(solve):
    # f = x.x + 3 x_0 where x_1 <= 6, and `outside` elsewhere: an Armijo
    # search rejects a -inf trial as it rejects a NaN one, so the two runs
    # take the same steps (a run at f = -inf would accept only -inf trials)
    def objective(outside):
        return CallableObjective(
            2,
            fn=lambda x: float(x @ x + 3.0 * x[0]) if x[1] <= 6.0 else outside,
            partial_fn=lambda x, i: float(2.0 * x[i] + (3.0 if i == 0 else 0.0)),
        )

    D, cfg = SimplexSet(2, 10.0), SolverConfig(max_iterations=50)
    minus_inf, nan = (solve(objective(outside), D, cfg, np.array([9.0, 1.0]))
                      for outside in (-math.inf, math.nan))
    assert nan.status == Status.CONVERGED
    assert (minus_inf.status, minus_inf.counters, minus_inf.f) == \
        (nan.status, nan.counters, nan.f)


@pytest.mark.parametrize("name,fn,extra", FIVE_METHODS)
def test_a_run_rejects_an_objective_of_another_dimension(name, fn, extra):
    # x0 fits the set, so only the dimension check can reject the run
    D = SimplexSet(4, 10.0)
    with pytest.raises(ValueError, match="does not match"):
        fn(LinearObjective([3.0, -1.0, 2.0]), D, SolverConfig(), D.barycenter(), *extra)


@pytest.mark.parametrize("delta0", [None, 1.0], ids=["default-delta0", "delta0"])
@pytest.mark.parametrize("name,fn,extra", FIVE_METHODS[2:])
def test_a_nan_partial_stops_an_inexact_run(name, fn, extra, delta0):
    # f = <a, x> with partial 0 NaN, which makes <f'(x), x> NaN: a cycle
    # that skipped the NaN would certify the vertex 10 e_1 (f = 20, while
    # f* = 10)
    a = np.array([1.0, 2.0, 3.0, 4.0])
    obj = CallableObjective(
        4,
        fn=lambda x: float(np.dot(a, x)),
        partial_fn=lambda x, i: math.nan if i == 0 else float(a[i]),
        with_fast_path=True,
    )
    D = SimplexSet(4, 10.0)
    with pytest.raises(NonFiniteOracleError) as info:
        fn(obj, D, SolverConfig(delta0=delta0), D.barycenter(), *extra)
    assert D.contains(info.value.point)
    if delta0 is None:  # the default rule's gap at x0 is NaN
        assert np.array_equal(info.value.point, D.barycenter())


@pytest.mark.parametrize("name,fn,extra", FIVE_METHODS)
def test_non_finite_seed_value_is_a_typed_error(name, fn, extra):
    # f = <a, x> + 0.5||x||^2, NaN only at the start point
    a = np.array([1.0, 2.0, 3.0])
    D = SimplexSet(3, 3.0)
    at0 = lambda x: np.array_equal(x, D.barycenter())
    obj = CallableObjective(
        3,
        fn=lambda x: math.nan if at0(x) else float(np.dot(a, x) + 0.5 * np.dot(x, x)),
        partial_fn=lambda x, i: float(a[i] + x[i]),
        with_fast_path=True,
    )
    kw = {"check_descent": True} if name == "cgmil" else {}
    with pytest.raises(NonFiniteOracleError) as info:
        fn(obj, D, SolverConfig(), D.barycenter(), *extra, **kw)
    assert np.array_equal(info.value.point, D.barycenter())
    assert obj.kf == 1


@pytest.mark.parametrize("name,fn,extra", FIVE_METHODS)
def test_barrier_pole_is_a_typed_error(name, fn, extra):
    # <c, x0> + d = 3 - 3 = 0 at the barycenter of the 3-simplex of mass 3
    obj = QuadraticFormObjective(np.eye(3), barrier=(np.ones(3), -3.0))
    D = SimplexSet(3, 3.0)
    with pytest.raises(NonFiniteOracleError) as info:
        fn(obj, D, SolverConfig(), D.barycenter(), *extra)
    assert np.array_equal(info.value.point, D.barycenter())


def test_start_at_large_mass_with_rounded_sum_is_feasible():
    # this uniform draw at b = 1e7 sums to b + 1.86e-9, past an absolute 1e-9
    spec = ProblemSpec(series=1, n=5, b=1e7)
    obj, D, _ = build_instance(spec)
    x0 = spec.b * np.random.default_rng(3).dirichlet(np.ones(5))
    assert abs(float(x0.sum()) - spec.b) > 1e-9
    assert D.contains(x0)
    rep = solve_cgms(obj, D, SolverConfig(eps=1e5, max_iterations=5), x0)
    assert D.contains(rep.x)
    g = obj.gradient(x0)
    assert _gap(g, float(np.dot(g, x0)), D.b) >= 0.0


def test_iterates_at_large_mass_stay_feasible():
    # 3000 cgms steps at b = 1e5 drift the mass by about 1.35e-9
    spec = ProblemSpec(series=1, n=20, b=1e5)
    rep = run(solve_cgms, spec, SolverConfig(eps=1e3, max_iterations=3000))
    assert SimplexSet(20, 1e5).contains(rep.x)


@pytest.mark.parametrize("series", [1, 2, 3, 4])
@pytest.mark.parametrize("delta0", [None, 1.0], ids=["default-delta0", "delta0"])
@pytest.mark.parametrize("name,fn,extra", FIVE_METHODS)
def test_one_vertex_simplex_converges_at_its_only_point(name, fn, extra, delta0, series):
    spec = ProblemSpec(series=series, n=1, m=3 if series > 2 else None)
    obj, D, x0 = build_instance(spec)
    if name == "cgmil":
        extra = (lipschitz_upper_bound(spec, D),)
    rep = fn(obj, D, SolverConfig(delta0=delta0), x0, *extra)
    assert rep.status is Status.CONVERGED
    assert rep.counters.it == 0 and rep.counters.restarts == 0
    assert rep.x.tobytes() == x0.tobytes() == np.array([D.b]).tobytes()
    # every method's gap is <g, x> - b min g, which at the only point x = b e_0
    # is g_0 b - b g_0: zero exactly, not a rounding of zero
    assert repr(rep.gap) == "0.0"
    assert rep.f == obj.value(rep.x)


@pytest.mark.parametrize("name,fn", [("cgm", solve_cgm), ("cgms", solve_cgms)])
def test_the_exact_oracle_steps_only_toward_the_lowest_tied_vertex(name, fn):
    # the smallest partial, 1, ties at indices 1, 3 and 4, and the start
    # holds no mass at index 1
    f = LinearObjective([2.0, 1.0, 3.0, 1.0, 1.0])
    D = SimplexSet(5, 10.0)
    trace = []
    rep = fn(f, D, SolverConfig(eps=1e-3), np.array([2.0, 0.0, 2.0, 3.0, 3.0]), trace=trace)
    assert rep.status is Status.CONVERGED
    assert trace and all(s.vertex == 1 for s in trace)


class SeparableQuadratic(SmoothObjective):
    """0.5 sum_i a_i (x_i - c_i)^2, from the three required hooks only."""

    def __init__(self, a, c):
        super().__init__(len(a))
        self.a = np.asarray(a, dtype=np.float64)
        self.c = np.asarray(c, dtype=np.float64)

    def _make_state(self, x):
        return {"r": x - self.c}

    def _value_impl(self, x, state):
        r = state["r"]
        return 0.5 * float(np.dot(self.a * r, r))

    def _gradient_impl(self, x, state):
        return self.a * state["r"]


@pytest.mark.parametrize("name,fn,extra", FIVE_METHODS)
def test_a_subclass_with_only_the_required_hooks_converges(name, fn, extra):
    f = SeparableQuadratic([1.0, 2.0, 3.0, 4.0], [4.0, -1.0, 3.0, 6.0])
    D = SimplexSet(4, 10.0)
    if name == "cgmil":
        extra = (float(f.a.max()),)  # the Hessian is diag(a)
    x0 = D.barycenter()
    rep = fn(f, D, SolverConfig(), x0, *extra)
    assert rep.status is Status.CONVERGED
    assert D.contains(rep.x)
    g = f.gradient(rep.x)
    assert _gap(g, float(np.dot(g, rep.x)), D.b) <= 0.1
