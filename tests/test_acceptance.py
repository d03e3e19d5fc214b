"""Acceptance suite: one test per criterion, each printing a PASS line.

The default benchmark grid (4 series x 5 sizes x 4 methods, eps = 0.1,
b = 10, beta = theta = 0.5, sigma = 0.9, nu = 0.5, barycenter start) is run
once in a session fixture with full iterate recording; the criteria then
interrogate the collected rows, histories, traces, and feasibility extremes.
"""

import math

import numpy as np
import pytest

from condgrad.core import SimplexSet, Status, step_point
from condgrad.harness import default_plan, format_rows_csv, run_plan, run_single
from condgrad.oracle import brute_force_gap
from condgrad.problems import (
    ProblemSpec,
    build_instance,
    lipschitz_upper_bound,
    make_objective,
)
from condgrad.solvers import SolverConfig, solve_cgmil

from helpers import fd_gradient, iterates, random_simplex_points, reference_fstar, stages

EPS = 0.1


@pytest.fixture(scope="session")
def minimality_traces():
    """Traced small runs, with every iterate replayed, used for the
    line-search minimality spot check."""
    results = []
    for spec in (ProblemSpec(series=1, n=5), ProblemSpec(series=3, n=5, m=2)):
        for method in ("cgm", "cgmi"):
            steps = []
            row, report = run_single(spec, method, SolverConfig(), trace=steps)
            assert report.status is Status.CONVERGED
            x0 = SimplexSet(spec.n, spec.b).barycenter()
            results.append((spec, steps, iterates(x0, steps, spec.b, method, report)))
    return results


def _rows(grid, method=None, series=None):
    out = []
    for (s, m, n, meth), cell in grid["outcomes"].items():
        if method is not None and meth != method:
            continue
        if series is not None and s not in series:
            continue
        out.append(cell)
    return out


# ---------------------------------------------------------------------------

def test_criterion_01_convergence_coverage(grid):
    cells = _rows(grid)
    assert len(cells) == 80
    bad = [(c.spec, c.method, c.row.status) for c in cells
           if c.row.status != "Converged"]
    assert not bad, f"non-converged runs: {bad}"
    assert all(c.row.it <= 10 ** 6 for c in cells)
    for c in cells:
        assert -1e-12 <= c.row.mu_final <= EPS, \
            f"converged run reports gap {c.row.mu_final} on {c.spec} {c.method}"
    assert grid["elapsed_s"] < 300.0, f"grid took {grid['elapsed_s']:.0f}s"
    print(f"\ncriterion 1 PASS: 80/80 runs Converged in {grid['elapsed_s']:.1f}s")


def test_criterion_02_kg_identity_exact_oracle(grid):
    cells = _rows(grid, method="cgm") + _rows(grid, method="cgms")
    assert len(cells) == 40
    for c in cells:
        assert c.row.kg == c.row.n * c.row.it, \
            f"kg != n*it for {c.method} on {c.spec}: {c.row}"
    print("\ncriterion 2 PASS: kg == n*it on all 40 cgm/cgms runs")


def test_criterion_03_kf_identity_adaptive_step(grid):
    cells = _rows(grid, method="cgms") + _rows(grid, method="cgmis")
    assert len(cells) == 40
    for c in cells:
        assert c.row.kf == c.row.it, \
            f"kf != it for {c.method} on {c.spec}: {c.row}"
    print("\ncriterion 3 PASS: kf == it on all 40 cgms/cgmis runs")


def test_criterion_04_inexactness_saves_gradient_work(grid):
    cells = [c for m in ("cgmi", "cgmis") for c in _rows(grid, method=m, series=(1, 3))]
    assert len(cells) == 20
    for c in cells:
        assert c.row.kg < c.row.n * c.row.it, \
            f"kg not below n*it for {c.method} on {c.spec}: {c.row}"
    print("\ncriterion 4 PASS: kg < n*it on all 20 cgmi/cgmis runs of series 1 and 3")


def test_criterion_05_line_search_free_saves_function_work(grid):
    outcomes = grid["outcomes"]
    keys = sorted({(s, m, n) for (s, m, n, _) in outcomes})
    assert len(keys) == 20
    wins_s = sum(outcomes[(s, m, n, "cgms")].row.kf
                 <= outcomes[(s, m, n, "cgm")].row.kf for s, m, n in keys)
    wins_is = sum(outcomes[(s, m, n, "cgmis")].row.kf
                  <= outcomes[(s, m, n, "cgmi")].row.kf for s, m, n in keys)
    assert wins_s >= 16, f"cgms beat cgm on only {wins_s}/20 cells"
    assert wins_is >= 16, f"cgmis beat cgmi on only {wins_is}/20 cells"
    print(f"\ncriterion 5 PASS: cgms<=cgm kf on {wins_s}/20, cgmis<=cgmi kf on {wins_is}/20")


def test_criterion_06_armijo_descent_and_minimality(grid, minimality_traces):
    # monotone objective on every line-search run of the grid
    for c in _rows(grid, method="cgm") + _rows(grid, method="cgmi"):
        h = c.f_history
        assert len(h) == c.row.it + 1
        drops = [a - b for a, b in zip(h, h[1:])]
        assert all(d >= 0.0 for d in drops), f"ascent step in {c.method} {c.spec}"
    # minimality: rebuild 100 recorded backtracking steps and confirm the
    # next-larger step fails the acceptance inequality
    pool = []
    for spec, steps, points in minimality_traces:
        for k, s in enumerate(steps):
            if s.trials >= 2:
                pool.append((spec, k, s, points[k]))
    rng = np.random.default_rng(2024)
    picks = rng.choice(len(pool), size=min(100, len(pool)), replace=False)
    assert len(picks) == 100, f"only {len(pool)} multi-trial steps recorded"
    for idx in picks:
        spec, k, s, x = pool[int(idx)]
        D = SimplexSet(spec.n, spec.b)
        fresh = make_objective(spec)
        lam_prev = 0.5 ** (s.trials - 2)  # theta^(m-1)
        trial = step_point(x, s.vertex, D.b, lam_prev)
        f_trial = fresh.value(trial)
        assert f_trial > s.f_before + 0.5 * lam_prev * s.dir_derivative, \
            f"step theta^(m-1) unexpectedly acceptable at k={k} of {spec}"
    print("\ncriterion 6 PASS: monotone descent on 20 runs; minimality on 100 sampled steps")


def test_criterion_07_per_step_descent_bound(grid):
    cells = _rows(grid, method="cgmi")
    assert len(cells) == 20
    checked = 0
    for c in cells:
        for lam, trials, delta, f_before, f_after in c.light_steps:
            assert f_before - f_after >= 0.5 * lam * delta - 1e-9, \
                f"descent bound broken on {c.spec}"
            checked += 1
    print(f"\ncriterion 7 PASS: decrease >= beta*lam*delta - 1e-9 on {checked} cgmi steps")


def test_criterion_08_fixed_step_complexity_bound():
    beta, nu = 0.5, 0.5
    rho2 = 200.0
    lines = []
    for n in (5, 10):
        spec = ProblemSpec(series=1, n=n)
        D = SimplexSet(spec.n, spec.b)
        L = lipschitz_upper_bound(spec, D)
        fstar = reference_fstar(spec)  # gap <= 1e-6
        obj0, _, x0 = build_instance(spec)
        mu0 = brute_force_gap(obj0, D, x0)
        for delta0 in (1.0, mu0 / 2.0):
            obj, _, _ = build_instance(spec)
            cfg = SolverConfig(beta=beta, nu=nu, eps=EPS, delta0=delta0)
            steps = []
            rep = solve_cgmil(obj, D, cfg, x0, L, trace=steps)
            assert rep.status is Status.CONVERGED
            points = iterates(x0, steps, spec.b, "cgmil", rep)
            probe = make_objective(spec)
            # the iterations of every stage that ends above f* + eps
            measured = sum(iterations for iterations, _, stop in stages(steps, rep)
                           if probe.value(points[stop]) - fstar >= EPS)
            c1 = rho2 * L / (2.0 * beta * (1.0 - beta) * delta0)
            bound = c1 * nu * ((delta0 / EPS) - 1.0) / (1.0 - nu)
            assert measured <= bound, \
                f"n={n} delta0={delta0}: measured {measured} > bound {bound}"
            lines.append(f"n={n} delta0={delta0:.3g}: {measured} <= {bound:.0f}")
    print("\ncriterion 8 PASS: " + "; ".join(lines))


ORACLE_SPECS = {
    1: lambda n: ProblemSpec(series=1, n=n),
    2: lambda n: ProblemSpec(series=2, n=n),
    3: lambda n: ProblemSpec(series=3, n=n, m=max(1, n // 2)),
    4: lambda n: ProblemSpec(series=4, n=n, m=max(1, n // 2)),
}


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(99)
    # gap: fast formula against explicit vertex enumeration
    for series, make in ORACLE_SPECS.items():
        spec = make(10)
        D = SimplexSet(spec.n, spec.b)
        for x in random_simplex_points(rng, spec.n, spec.b, 200):
            brute = brute_force_gap(make_objective(spec), D, x)
            fast = float(np.dot(make_objective(spec).gradient(x), x)) \
                - spec.b * float(np.min(make_objective(spec).gradient(x)))
            assert abs(brute - fast) <= 1e-12 * max(1.0, abs(brute))
    # gradients: analytic against central differences
    for series, make in ORACLE_SPECS.items():
        for n in (2, 5, 10):
            spec = make(n)
            obj = make_objective(spec)
            for x in random_simplex_points(rng, spec.n, spec.b, 100):
                fd = fd_gradient(make_objective(spec), x)
                g = obj.gradient(x)
                err = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
                assert err <= 1e-5, f"fd mismatch on series {series} n={n}"
    print("\ncriterion 9 PASS: gap agreement at 1e-12 (200 pts x 4 series); "
          "fd gradients at 1e-5 (100 pts x 4 series x 3 sizes)")


def test_criterion_10_feasibility_of_every_iterate(grid):
    worst_mass = max(c.max_mass_dev for c in _rows(grid))
    worst_coord = min(c.min_coord for c in _rows(grid))
    assert worst_mass <= 1e-9, f"mass drift {worst_mass}"
    assert worst_coord >= -1e-12, f"coordinate dip {worst_coord}"
    print(f"\ncriterion 10 PASS: worst mass deviation {worst_mass:.2e}, "
          f"worst coordinate {worst_coord:.2e} over all recorded iterates")


def test_criterion_11_plan_determinism(grid):
    # an untraced rerun of the plan against the traced grid of the fixture:
    # the runs repeat, and tracing changes no row
    plan = default_plan()
    rerun = format_rows_csv(run_plan(plan))
    cells = sorted(plan.cells, key=lambda c: (c.series, c.rows, c.n))
    traced = format_rows_csv([grid["outcomes"][(c.series, c.rows, c.n, method)].row
                              for c in cells for method in plan.methods])

    def strip_wall(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.strip().split("\n"))

    assert strip_wall(rerun) == strip_wall(traced)
    print("\ncriterion 11 PASS: untraced rerun CSV byte-identical to the traced grid "
          "outside wall_ms")


def test_criterion_12_iteration_count_brackets(grid):
    cgm = grid["outcomes"][(1, 5, 5, "cgm")].row
    cgms = grid["outcomes"][(1, 5, 5, "cgms")].row
    assert 50 <= cgm.it <= 2000, f"cgm series1 n=5 it={cgm.it} outside [50, 2000]"
    assert 20 <= cgms.it <= 2000, f"cgms series1 n=5 it={cgms.it} outside [20, 2000]"
    print(f"\ncriterion 12 PASS: series1 n=5 it: cgm={cgm.it}, cgms={cgms.it}")
