"""Reference oracles: brute-force gap, finite differences, objective floor."""

import numpy as np
import pytest

from condgrad.core import SimplexSet
from condgrad.oracle import brute_force_gap
from condgrad.problems import ProblemSpec, build_phi2_terms, make_objective
from condgrad.solvers import _gap

from helpers import (
    LinearObjective,
    NonConvergenceError,
    fd_gradient,
    random_simplex_points,
    reference_fstar,
    vertex,
)

ALL_SPECS = (
    ProblemSpec(series=1, n=10),
    ProblemSpec(series=2, n=10),
    ProblemSpec(series=3, n=10, m=5),
    ProblemSpec(series=4, n=10, m=5),
)


def test_brute_force_gap_hand_cases():
    D = SimplexSet(3, 10.0)
    obj = LinearObjective([3.0, -1.0, 2.0])
    x = (10.0 / 3.0) * np.ones(3)
    assert brute_force_gap(obj, D, x) == pytest.approx(70.0 / 3.0, rel=1e-14)
    # stationary vertex of the constant field
    assert brute_force_gap(obj, D, vertex(D, 1)) == 0.0
    with pytest.raises(ValueError):
        brute_force_gap(obj, D, np.ones(3))


def test_brute_force_gap_matches_fast_gap():
    rng = np.random.default_rng(23)
    for spec in ALL_SPECS:
        D = SimplexSet(spec.n, spec.b)
        for x in random_simplex_points(rng, spec.n, spec.b, 200):
            obj = make_objective(spec)
            brute = brute_force_gap(obj, D, x)
            fast = _gap(make_objective(spec).gradient(x), x, D.b)
            assert abs(brute - fast) <= 1e-12 * max(1.0, abs(brute))
            assert brute >= -1e-12


def test_fd_settings_validation():
    obj = LinearObjective([2.0, -3.0, 0.5])
    with pytest.raises(ValueError):
        fd_gradient(obj, [1.0, 1.0, 1.0], step=0.0)


def test_fd_gradient_exact_on_linear():
    obj = LinearObjective([2.0, -3.0, 0.5])
    x = np.array([1.0, 4.0, 5.0])
    fd = fd_gradient(obj, x)
    assert np.allclose(fd, [2.0, -3.0, 0.5], rtol=1e-9, atol=1e-9)


def test_fd_gradient_matches_analytic_on_all_series():
    rng = np.random.default_rng(29)
    for spec in ALL_SPECS:
        obj = make_objective(spec)
        for x in random_simplex_points(rng, spec.n, spec.b, 20):
            fd = fd_gradient(make_objective(spec), x)
            g = obj.gradient(x)
            err = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
            assert err <= 1e-5


def test_fd_gradient_isolates_barrier_term():
    # the series2/series1 value difference is the pure barrier; its finite
    # differences must match -c/(<c,x>+d)^2
    f2 = make_objective(ProblemSpec(series=2, n=2))
    f1 = make_objective(ProblemSpec(series=1, n=2))

    from helpers import CallableObjective

    barrier = CallableObjective(
        2,
        fn=lambda x: f2.value(x) - f1.value(x),
        partial_fn=lambda x, i: 0.0,  # unused
    )
    x = np.array([5.0, 5.0])
    c, d = build_phi2_terms(2)
    analytic = -c / (float(np.dot(c, x)) + d) ** 2
    fd = fd_gradient(barrier, x)
    assert np.allclose(fd, analytic, rtol=1e-5, atol=1e-12)


def test_reference_fstar_closed_form_cases():
    # n=1 simplex is the single point {10}: f* = 0.5 * 1 * 100
    assert reference_fstar(ProblemSpec(series=1, n=1)) == 50.0
    # least squares residual vanishes at x = b
    assert reference_fstar(ProblemSpec(series=3, n=1, m=1)) == 0.0


def test_reference_fstar_monotone_in_accuracy():
    spec = ProblemSpec(series=1, n=5)
    loose = reference_fstar(spec, target_gap=1e-3)
    tight = reference_fstar(spec, target_gap=1e-6)
    assert tight <= loose          # the tighter run extends the same path
    assert loose - tight <= 1e-3   # convexity: loose is within its own gap


def test_reference_fstar_certificate():
    spec = ProblemSpec(series=1, n=5)
    fstar = reference_fstar(spec, target_gap=1e-5)
    # any converged value sits within target_gap of the true optimum, so a
    # tighter rerun can improve by at most that much
    tighter = reference_fstar(spec, target_gap=1e-6)
    assert tighter <= fstar
    assert fstar - tighter <= 1e-5


def test_reference_fstar_nonconvergence_error():
    with pytest.raises(NonConvergenceError) as err:
        reference_fstar(ProblemSpec(series=1, n=5), target_gap=1e-9,
                        max_iterations=10)
    assert err.value.best_gap > 1e-9
    assert np.isfinite(err.value.best_value)
