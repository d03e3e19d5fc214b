"""Core primitives: simplex set, vertex oracle, gap, Armijo, call counting."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condgrad.core as core
from condgrad.core import (
    LineSearchError,
    NonFiniteOracleError,
    SimplexSet,
    SmoothObjective,
    armijo_step,
    as_vector,
    exact_lmo,
    step_point,
)
from condgrad.problems import (
    LeastSquaresObjective,
    ProblemSpec,
    QuadraticFormObjective,
    build_instance,
    build_phi1_matrix,
    build_phi2_terms,
    build_phi3_data,
    make_objective,
)
from condgrad.solvers import SolverConfig, _gap, solve_cgmis

from helpers import (
    CallableObjective,
    LinearObjective,
    random_simplex_points,
    ray_value,
    scalar_objective,
    vertex,
)


# ---------------------------------------------------------------------------
# SimplexSet

def test_simplex_validation():
    with pytest.raises(ValueError):
        SimplexSet(0, 10.0)
    with pytest.raises(ValueError):
        SimplexSet(3, 0.0)
    with pytest.raises(ValueError):
        SimplexSet(3, -1.0)
    # the dimension is an integer: no bool, no float, even integral
    for bad in (True, 2.5, 3.0):
        with pytest.raises(ValueError):
            SimplexSet(bad)
        with pytest.raises(ValueError):
            CallableObjective(bad, fn=lambda x: 0.0, partial_fn=lambda x, i: 0.0)
    assert SimplexSet(np.int64(3)).n == 3
    # the mass is a finite real: no bool, no string, no None, no float32
    for bad in (True, np.bool_(True), "10", None, np.float32(10.0), 10 ** 400):
        with pytest.raises(ValueError):
            SimplexSet(3, bad)
    for good in (10, np.int64(10), np.float64(10.0)):
        assert SimplexSet(3, good).b == 10
    assert CallableObjective(np.int64(3), fn=lambda x: 0.0, partial_fn=lambda x, i: 0.0).n == 3


def test_simplex_membership():
    D = SimplexSet(3, 10.0)
    assert D.contains(D.barycenter())
    assert D.contains(vertex(D, 0))
    assert D.contains([10.0, 0.0, 0.0])
    assert not D.contains([10.0, 0.0])           # wrong length
    assert not D.contains([5.0, 5.0, 5.0])       # wrong mass
    assert not D.contains([11.0, -1.0, 0.0])     # negative coordinate
    # what `as_vector` refuses is not a member, and raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not SimplexSet(2, 10.0).contains(["5", "5"])
        assert not SimplexSet(2, 10.0).contains(np.array([5 + 0j, 5]))
        assert not SimplexSet(10, 10.0).contains(np.ones(10, bool))
        assert not D.contains([10.0, 0.0, math.nan])
        assert not D.contains([[10.0, 0.0, 0.0]])
    # tolerance edges
    assert D.contains([10.0 + 5e-10, 0.0, 0.0])
    assert not D.contains([10.0 + 5e-9, 0.0, 0.0])
    assert D.contains([10.0 + 5e-13, -5e-13, 0.0])
    assert not D.contains([10.0 + 1e-11, -1e-11, 0.0])


def test_simplex_geometry():
    D = SimplexSet(4, 10.0)
    assert D.diameter_squared == 200.0
    assert np.allclose(D.barycenter(), 2.5)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], n=3)
    # entries that are not integer or floating reals: strings would parse,
    # a complex part would drop with only a warning, bools would count as 0/1
    for bad in (["5", "5"], np.array([5 + 1j, 5.0]), [True, False], [1.0, None],
                np.array([1.0, 2.0], dtype=object)):
        with pytest.raises(ValueError, match="real numbers"):
            as_vector(bad)
    assert as_vector(np.array([1, 2], dtype=np.int32)).dtype == np.float64


def test_as_vector_accepts_a_finite_vector_whose_sum_overflows():
    with np.errstate(over="ignore"):
        v = as_vector([1e308, 1e308, -1e308])
    assert v.tolist() == [1e308, 1e308, -1e308]
    # the squares overflow, though the entries and their sum are finite;
    # and as_vector raises no floating-point warning on the way
    assert as_vector([1e200, -1e200]).tolist() == [1e200, -1e200]
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        as_vector([1e308, math.inf, -math.inf])
    with pytest.raises(ValueError):
        as_vector([1e200, math.nan])


# ---------------------------------------------------------------------------
# exact vertex oracle

def test_lmo_trivial_examples():
    D = SimplexSet(3, 10.0)
    assert exact_lmo([3.0, -1.0, 2.0], D) == 1
    # constant gradient: tie broken toward the lowest index
    assert exact_lmo([7.0, 7.0, 7.0], D) == 0
    # ties away from index 0 also go to the lowest tied index
    assert exact_lmo([3.0, 1.0, 1.0, 2.0], SimplexSet(4, 10.0)) == 1
    assert exact_lmo([5.0, 4.0, -2.0, 0.0, -2.0], SimplexSet(5, 10.0)) == 2


def test_lmo_matches_enumeration_on_quadratic_gradient():
    # frozen from brute-force enumeration of all five vertices
    P = build_phi1_matrix(5)
    g = P @ (2.0 * np.ones(5))
    D = SimplexSet(5, 10.0)
    i = exact_lmo(g, D)
    assert i == 3
    assert np.dot(g, vertex(D, i)) == min(np.dot(g, vertex(D, j)) for j in range(5))


def test_lmo_dimension_mismatch():
    with pytest.raises(ValueError):
        exact_lmo([1.0, 2.0], SimplexSet(3, 10.0))


@pytest.mark.parametrize("g", [
    [1.0, math.nan, 3.0, -2.0],   # NaN away from the minimum
    [1.0, 2.0, 3.0, math.nan],    # NaN in the place of the smallest entry
    [1.0, math.inf, 3.0, -2.0],
    [1.0, 2.0, -math.inf, -2.0],
], ids=["nan-away", "nan-at-min", "+inf", "-inf"])
def test_lmo_refuses_a_non_finite_gradient(g):
    # a caller outside the solvers gets no vertex from a gradient that is
    # not finite, wherever the bad entry lies
    with pytest.raises(ValueError, match="non-finite"):
        exact_lmo(g, SimplexSet(4, 10.0))


def test_lmo_optimality_over_random_gradients():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        g = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        D = SimplexSet(n, 10.0)
        i = exact_lmo(g, D)
        best = min(float(np.dot(g, vertex(D, j))) for j in range(n))
        assert float(np.dot(g, vertex(D, i))) == best


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
def test_lmo_vertex_value_is_b_times_min(coords):
    g = np.asarray(coords)
    D = SimplexSet(g.size, 10.0)
    i = exact_lmo(g, D)
    assert np.dot(g, vertex(D, i)) == 10.0 * g.min()
    assert i == int(np.argmin(g))


# ---------------------------------------------------------------------------
# gap function

def test_gap_nonnegative_and_consistent_with_lmo():
    rng = np.random.default_rng(11)
    for n in (2, 5, 17, 40):
        D = SimplexSet(n, 10.0)
        for x in random_simplex_points(rng, n, 10.0, 50):
            g = rng.normal(size=n) * 100.0
            mu = _gap(g, float(np.dot(g, x)), D.b)
            assert mu >= -1e-12
            direct = float(np.dot(g, x - vertex(D, exact_lmo(g, D))))
            assert abs(mu - direct) <= 1e-12 * max(1.0, abs(mu))


# ---------------------------------------------------------------------------
# Armijo backtracking

def test_armijo_scalar_quadratic():
    # frozen by scalar brute force over m: f(t)=t^2 from t=1 toward 0
    f = scalar_objective(lambda t: t * t, lambda t: 2.0 * t)
    res = armijo_step(f, [1.0], 0, 0.0, -2.0, 0.5, 0.5, f_x=1.0)
    assert res.step == 1.0
    assert res.trials == 1
    assert res.new_value == 0.0
    assert f.kf == 1


def test_armijo_scalar_quartic():
    # frozen by scalar brute force over m=0,1,2: accepts at 0.25
    f = scalar_objective(lambda t: t ** 4, lambda t: 4.0 * t ** 3)
    res = armijo_step(f, [1.0], 0, 0.0, -4.0, 0.5, 0.5, f_x=1.0)
    assert res.step == 0.25
    assert res.trials == 3
    assert res.new_value == pytest.approx(0.75 ** 4, rel=1e-15)
    assert f.kf == 3


def test_armijo_rejects_non_descent():
    f = scalar_objective(lambda t: t * t, lambda t: 2.0 * t)
    with pytest.raises(ValueError):
        armijo_step(f, [1.0], 0, 2.0, 2.0, 0.5, 0.5, f_x=1.0)
    with pytest.raises(ValueError):
        armijo_step(f, [1.0], 0, 2.0, 0.0, 0.5, 0.5, f_x=1.0)
    # a non-finite f(x) gives no threshold to test a trial against
    for f_x in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            armijo_step(f, [1.0], 0, 0.0, -2.0, 0.5, 0.5, f_x=f_x)
    assert f.kf == 0


def test_armijo_rejects_a_vertex_index_out_of_range():
    f = scalar_objective(lambda t: t * t, lambda t: 2.0 * t)
    for i in (-1, 1):
        with pytest.raises(ValueError):
            armijo_step(f, [1.0], i, 0.0, -2.0, 0.5, 0.5, f_x=1.0)
    assert f.kf == 0


def test_armijo_rejects_a_vertex_index_that_is_not_an_integer():
    # a bool is an int to Python, and would read the ray of vertex 1
    f = QuadraticFormObjective(build_phi1_matrix(2))
    x = _frozen([5.0, 5.0])
    f_x = f.value(x)  # x is the cached key, so a vertex ray is on offer
    for i in (True, False, 1.0, np.float64(0.0)):
        with pytest.raises(ValueError, match="integer"):
            armijo_step(f, x, i, 10.0, -1.0, 0.5, 0.5, f_x)
    assert f.kf == 1
    assert armijo_step(f, x, np.int64(0), 10.0, -1.0, 0.5, 0.5, f_x).trials >= 1


def test_armijo_trial_cap_is_an_error():
    # an oracle whose claimed slope is a lie: f grows in every direction from
    # x=1, and f_x=0 keeps the acceptance threshold exactly negative even
    # when lam underflows below one ulp
    f = scalar_objective(lambda t: abs(t - 1.0), lambda t: -1.0)
    with pytest.raises(LineSearchError) as err:
        armijo_step(f, [1.0], 0, 0.0, -1.0, 0.5, 0.5, f_x=0.0)
    assert err.value.trials == 61
    assert f.kf == 61


def test_armijo_trial_cap_follows_the_ladder_of_theta():
    # as above with theta = 0.9: the search runs to the ladder's last rung,
    # the first at which 1 - 0.9^m rounds to 1
    f = scalar_objective(lambda t: abs(t - 1.0), lambda t: -1.0)
    with pytest.raises(LineSearchError, match="after 357 trials") as err:
        armijo_step(f, [1.0], 0, 0.0, -1.0, 0.5, 0.9, f_x=0.0)
    assert err.value.trials == f.kf == len(core._ladder(0.9, 0.5)) == 357


def _flat_then(x0, elsewhere):
    """Scalar oracle equal to 1 at x0 and to `elsewhere` at every other point."""
    return scalar_objective(lambda t: 1.0 if t == x0 else elsewhere, lambda t: -1.0)


def test_armijo_null_step_after_non_finite_trials_is_an_error():
    # NaN away from x: backtracking runs until theta^m rounds the trial
    # point back to x, whose value passes the test; that null step must not
    # be returned as progress
    f = _flat_then(1.0, math.nan)
    with pytest.raises(NonFiniteOracleError) as err:
        armijo_step(f, [1.0], 0, 2.0, -1.0, 0.5, 0.5, f_x=1.0)
    assert np.array_equal(err.value.point, [1.0])
    assert err.value.trials == f.kf < 61


def test_armijo_null_step_with_finite_trials_is_a_line_search_error():
    f = _flat_then(1.0, 2.0)
    with pytest.raises(LineSearchError) as err:
        armijo_step(f, [1.0], 0, 2.0, -1.0, 0.5, 0.5, f_x=1.0)
    assert np.array_equal(err.value.point, [1.0])
    assert err.value.vertex == 0
    assert err.value.trials == f.kf < 61


@given(
    a=st.floats(0.5, 50.0),
    center=st.floats(-0.5, 0.9),
    beta=st.floats(0.05, 0.95),
    theta=st.floats(0.1, 0.9),
)
@settings(max_examples=150, deadline=None)
def test_armijo_minimality(a, center, beta, theta):
    # f(t) = a (t - c)^2 from t=1 stepping toward 0; slope at 1 is negative
    f = scalar_objective(lambda t: a * (t - center) ** 2,
                         lambda t: 2.0 * a * (t - center))
    dd = -2.0 * a * (1.0 - center)
    res = armijo_step(f, [1.0], 0, 0.0, dd, beta, theta, f_x=a * (1.0 - center) ** 2)
    assert res.new_value <= a * (1.0 - center) ** 2 + beta * res.step * dd
    if res.trials > 1:
        lam_prev = theta ** (res.trials - 2)
        probe = scalar_objective(lambda t: a * (t - center) ** 2,
                                 lambda t: 2.0 * a * (t - center))
        f_prev = probe.value(step_point(np.array([1.0]), 0, 0.0, lam_prev))
        assert f_prev > a * (1.0 - center) ** 2 + beta * lam_prev * dd


def test_armijo_accepted_point_is_convex_combination():
    f = scalar_objective(lambda t: t ** 4, lambda t: 4.0 * t ** 3)
    res = armijo_step(f, [1.0], 0, 0.0, -4.0, 0.5, 0.5, f_x=1.0)
    assert np.array_equal(res.new_point, step_point(np.array([1.0]), 0, 0.0, 0.25))


# ---------------------------------------------------------------------------
# call accounting

def test_counter_exactness_scripted():
    g0 = np.arange(1.0, 8.0)
    f = LinearObjective(g0)
    x = np.ones(7)
    for _ in range(5):
        f.value(x)
    for _ in range(3):
        f.gradient(x)
    # the uncharged methods, at the cached key
    key = _frozen(x)
    f.value(key)
    for i in range(4):
        assert f.vertex_ray(key, i, 7.0) is None
    f.vertex_step(key, 2, 7.0, 0.5)
    assert f.kf == 6
    assert f.kg == 3 * 7


def test_gradient_fast_path_absent_is_declared_false():
    # the fast path is a declaration that a run reads, not an oracle call
    assert SmoothObjective.cheap_gradient_dot_point is False
    f = LinearObjective(np.ones(3), with_fast_path=False)
    assert f.cheap_gradient_dot_point is False
    assert LinearObjective(np.ones(3)).cheap_gradient_dot_point is True
    assert not hasattr(f, "gradient_dot_point") and f.kg == 0


# ---------------------------------------------------------------------------
# step arithmetic

@given(
    n=st.integers(2, 20),
    lam=st.floats(1e-12, 1.0),
    seed=st.integers(0, 2 ** 31),
)
@settings(max_examples=200, deadline=None)
def test_step_point_stays_feasible(n, lam, seed):
    rng = np.random.default_rng(seed)
    D = SimplexSet(n, 10.0)
    x = random_simplex_points(rng, n, 10.0, 1)[0]
    assert D.contains(step_point(x, int(rng.integers(0, n)), D.b, lam))


def test_step_point_refuses_a_vertex_index_that_is_not_an_integer():
    # a bool index is a mask: True would step every entry, off the simplex
    x = np.array([5.0, 5.0])
    for i in (True, False, 1.0, np.float64(0.0), np.bool_(True)):
        with pytest.raises(ValueError, match="integer"):
            step_point(x, i, 10.0, 0.5)
    assert step_point(x, np.int64(1), 10.0, 0.5).tolist() == [2.5, 7.5]


def test_step_point_refuses_an_index_or_a_step_off_the_segment():
    # a negative index would step toward the vertex counted from the end,
    # and a step outside [0, 1] (or NaN) would leave the simplex
    x = np.full(10, 1.0)
    for i, lam in ((-1, 0.5), (10, 0.5), (np.int64(-10), 0.5), (3, 1.5), (3, -0.5),
                   (3, math.nan), (3, math.inf)):
        with pytest.raises(ValueError, match="integer"):
            step_point(x, i, 10.0, lam)
    assert step_point(x, 0, 10.0, 0.0).tolist() == x.tolist()
    assert step_point(x, 9, 10.0, 1.0).tolist() == [0.0] * 9 + [10.0]


def test_vertex_ray_refuses_what_step_point_refuses_as_an_index():
    # -1 would read the ray toward the last vertex, n an entry past the end,
    # and a bool a mask: each is refused at the key and at any other x
    f, D, x0 = build_instance(ProblemSpec(series=1, n=5))
    key = _frozen(x0)
    f.value(key)
    for x in (key, _frozen(x0), x0):
        for i in (True, False, 1.0, np.float64(0.0), np.bool_(True), -1, 5, np.int64(-5)):
            with pytest.raises(ValueError, match="integer"):
                f.vertex_ray(x, i, D.b)
    assert f.vertex_ray(key, np.int64(4), D.b) is not None
    assert f.vertex_ray(x0, 4, D.b) is None


@pytest.mark.parametrize("n, steps", [(10, 2000), (1000, 2000), (100_000, 300)])
@pytest.mark.parametrize("b", [1e-2, 10.0, 1e6])
def test_mass_drift_of_vertex_steps_does_not_grow_with_n(n, b, steps):
    # each entry of a step rounds relative to itself and the entries sum to
    # b, so the mass drifts by a few ulps of b whatever n is: the relative
    # tolerance MASS_RTOL needs no n term
    D = SimplexSet(n, b)
    rng = np.random.default_rng(n)
    x, worst = D.barycenter(), 0.0
    for _ in range(steps):
        x = step_point(x, int(rng.integers(n)), b, float(rng.uniform()) ** 3)
        assert D.contains(x)
        worst = max(worst, abs(float(x.sum()) - b))
    assert worst <= 1e-14 * b


# ---------------------------------------------------------------------------
# per-point state cache

def _objectives():
    """One objective per state layout: g = Px with a barrier, r = Px - q
    and g = P^T r with a barrier."""
    P3, q = build_phi3_data(4, 6)
    return [QuadraticFormObjective(build_phi1_matrix(6), barrier=build_phi2_terms(6)),
            LeastSquaresObjective(P3, q, barrier=build_phi2_terms(6))]


def _frozen(values):
    x = np.array(values, dtype=np.float64)
    x.flags.writeable = False
    return x


def _twin(f):
    """A fresh objective over the same data, with an empty cache."""
    barrier = None if f.c is None else (f.c, f.d)
    if isinstance(f, QuadraticFormObjective):
        return QuadraticFormObjective(f.P, barrier=barrier)
    return LeastSquaresObjective(f.P, f.q, barrier=barrier)


def _readings(f, x):
    return (f.value(x), f.gradient(x))


def _assert_same_readings(a, b):
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


@pytest.mark.parametrize("f", _objectives(), ids=["quadratic", "least-squares"])
def test_cache_sees_in_place_mutation_of_writeable_input(f):
    x = np.full(6, 10.0 / 6.0)
    before = _readings(f, x)
    x[0] += 1.0
    x[1] -= 1.0
    after = _readings(f, x)
    assert after[0] != before[0]
    _assert_same_readings(after, _readings(_twin(f), x.copy()))


@pytest.mark.parametrize("f", _objectives(), ids=["quadratic", "least-squares"])
def test_cache_does_not_trust_read_only_view(f):
    base = np.full(6, 10.0 / 6.0)
    view = base[:]
    view.flags.writeable = False
    before = _readings(f, view)
    base[0] += 1.0  # changes what the read-only view shows
    base[1] -= 1.0
    after = _readings(f, view)
    assert after[0] != before[0]
    _assert_same_readings(after, _readings(_twin(f), base.copy()))


@pytest.mark.parametrize("f", _objectives(), ids=["quadratic", "least-squares"])
def test_untrusted_input_neither_reads_nor_evicts_the_cached_state(f):
    builds = []
    build = f._make_state
    f._make_state = lambda x: builds.append(1) or build(x)
    x = _frozen(np.full(6, 10.0 / 6.0))
    f.value(x)
    y = np.array(x)
    y[0] += 1.0
    y[1] -= 1.0
    f.value(y)
    f.gradient(x)
    assert len(builds) == 2


@pytest.mark.parametrize("f", _objectives(), ids=["quadratic", "least-squares"])
def test_cached_iterate_gradient_matches_a_fresh_oracle_bit_for_bit(f):
    x = step_point(np.full(6, 10.0 / 6.0), 4, 10.0, 0.3)
    f.value(x)
    g = f.gradient(x)
    assert np.array_equal(g, _twin(f).gradient(x))


def test_cache_validates_a_read_only_iterate_once(monkeypatch):
    f = _objectives()[0]
    calls = []
    real = core.as_vector
    monkeypatch.setattr(core, "as_vector", lambda x, n=None: calls.append(1) or real(x, n))
    x = _frozen(np.full(6, 10.0 / 6.0))
    f.value(x)
    f.gradient(x)
    assert f.vertex_ray(x, 2, 10.0) is not None
    for _ in range(6):
        f.gradient(x)
    assert len(calls) == 1
    # a new read-only array with the same values is a new key, validated once
    f.gradient(_frozen(x))
    assert len(calls) == 2


@pytest.mark.parametrize("f", _objectives(), ids=["quadratic", "least-squares"])
def test_cache_still_rejects_bad_input_after_a_cached_call(f):
    x = _frozen(np.full(6, 10.0 / 6.0))
    f.value(x)
    f.gradient(x)
    with pytest.raises(ValueError):
        f.value(np.where(np.arange(6) == 3, np.nan, x))
    with pytest.raises(ValueError):
        f.gradient(_frozen(np.where(np.arange(6) == 3, np.inf, x)))
    with pytest.raises(ValueError):
        f.gradient(x[:5])
    with pytest.raises(ValueError):
        f.value(_frozen(np.append(x, 0.0)))
    with pytest.raises(ValueError):
        f.vertex_step(x, 6, 10.0, 0.5)
    assert f.value(_frozen(x)) == f.value(x)


def test_step_point_and_report_x_are_read_only():
    y = step_point(np.full(3, 1.0), 0, 3.0, 0.5)
    assert not y.flags.writeable and y.base is None
    with pytest.raises(ValueError):
        y[0] = 0.0
    objective, D, x0 = build_instance(ProblemSpec(series=1, n=5))
    report = solve_cgmis(objective, D, SolverConfig(), x0)
    assert report.counters.it > 0
    assert not report.x.flags.writeable and report.x.base is None
    # the caller's start point is copied, not frozen
    assert x0.flags.writeable
    # a run that stops at x0 reports the frozen copy
    start = solve_cgmis(objective, D, SolverConfig(eps=1e6), x0)
    assert start.counters.it == 0 and start.x is not x0
    assert not start.x.flags.writeable and np.array_equal(start.x, x0)


# ---------------------------------------------------------------------------
# vertex ray screen of the Armijo search

def _ray_objectives():
    """Both objectives with and without the barrier."""
    P3, q = build_phi3_data(4, 6)
    return _objectives() + [QuadraticFormObjective(build_phi1_matrix(6)),
                            LeastSquaresObjective(P3, q)]


RAY_IDS = ["quadratic-barrier", "least-squares-barrier", "quadratic", "least-squares"]


def _uphill_ray(f):
    """A cached point x, and the index and mass of the vertex ray from x
    along which f rises most (f is convex, so it rises along the whole ray)."""
    x = _frozen(10.0 * np.random.default_rng(3).dirichlet(np.ones(f.n)))
    ends = [f.value(step_point(x, i, 10.0, 1.0)) for i in range(f.n)]
    i = int(np.argmax(ends))
    assert f.value(x) < ends[i]  # and x is the cached key
    return x, i, 10.0


def _tangent_remainder(f, x, i, b, lam):
    """A bound on how far the barrier 1/D(lam) lies above its tangent at x
    on the vertex ray: lam^2 (w - u)^2/((u + d)^2 min(u + d, w + d)), with
    D(lam) = (1-lam)u + lam w + d, u = <c, x> and w = c_i b."""
    u, w, d = float(f.c.dot(x)), float(f.c[i]) * b, f.d
    return lam * lam * (w - u) ** 2 / ((u + d) ** 2 * min(u + d, w + d))


def _assert_ray_within_margin(f, x, i, b, lams, scale=None):
    ray = f.vertex_ray(x, i, b)
    kf = f.kf
    for lam in lams:
        gap = _twin(f).value(step_point(x, i, b, lam)) - ray_value(ray, lam)
        assert gap >= -ray.margin, lam  # the screen's contract
        if f.c is None:  # the ray is f itself
            assert gap <= ray.margin, lam
        else:  # and the barrier's tangent stays within its remainder of it
            assert gap <= _tangent_remainder(f, x, i, b, lam) + 2.0 * ray.margin, lam
    assert 0.0 < ray.margin < 1e-9 * (abs(ray_value(ray, 1.0)) if scale is None else scale)
    assert f.kf == kf  # the ray is uncharged


@pytest.mark.parametrize("f", _ray_objectives(), ids=RAY_IDS)
def test_vertex_ray_is_within_its_margin_of_value(f):
    x, i, b = _uphill_ray(f)
    _assert_ray_within_margin(f, x, i, b, (1.0, 0.5, 0.3, 1e-3, 2.0 ** -60, 0.0))


EDGE_CASES = ["vertex", "negative-coordinate", "b=1e-2", "b=1e4", "n=1"]


def _edge_ray(case, series):
    """An objective of `series`, a cached point x of the kind `case` names,
    and the index and mass of a vertex ray from it."""
    n = 1 if case == "n=1" else 6
    b = {"b=1e-2": 1e-2, "b=1e4": 1e4}.get(case, 10.0)
    m = (1 if n == 1 else 4) if series > 2 else None
    f = make_objective(ProblemSpec(series=series, n=n, m=m, b=b))
    x = b * np.random.default_rng(7).dirichlet(np.ones(n))
    if case == "vertex":
        x = np.zeros(n)
        x[1] = b
    elif case == "negative-coordinate":
        x[0] = -1e-13  # stays negative, scaled by 1 - lam, along the ray
    x = _frozen(x)
    f.value(x)
    i = n - 1
    return f, x, i, b


@pytest.mark.parametrize("series", [1, 2, 3, 4])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_vertex_ray_is_within_its_margin_at_edge_cases(case, series):
    f, x, i, b = _edge_ray(case, series)
    lams = [0.5 ** m for m in range(core.MAX_BACKTRACKS + 1)] + [0.3, 1e-3, 0.0]
    # at n = 1 the least-squares residual vanishes at the only point, b*e_1,
    # where f = 0, so there the margin is compared with 1 instead
    scale = 1.0 if (case, series) == ("n=1", 3) else None
    _assert_ray_within_margin(f, x, i, b, lams, scale)


def _reference_first_opens(ray, theta, beta, rungs, f_x, dd):
    """For every start m in 0..rungs, the first k >= m below `rungs` at
    which the trial is not certainly rejected (else `rungs`), with the step
    and threshold computed per trial."""
    first = [rungs] * (rungs + 1)
    for k in reversed(range(rungs)):
        lam = theta ** k
        is_open = not ray_value(ray, lam) - ray.margin > f_x + beta * lam * dd
        first[k] = k if is_open else first[k + 1]
    return first


def _screened_rays():
    rays = [f.vertex_ray(*_uphill_ray(f)) for f in _ray_objectives()]
    for series in (1, 2, 3, 4):
        f, x, i, b = _edge_ray("vertex", series)
        rays.append(f.vertex_ray(x, i, b))
    nan, inf = math.nan, math.inf
    # NaN and infinite coefficients: a NaN value is never a certain rejection
    return rays + [core.VertexRay(nan, 1.0, 1.0, 0.0), core.VertexRay(1.0, 1.0, inf, 1e-9),
                   core.VertexRay(1.0, -inf, inf, 0.0), core.VertexRay(2.0, 1.0, 3.0, nan),
                   core.VertexRay(2.0, nan, 3.0, 1e-12), core.VertexRay(2.0, -1.0, 3.0, 1e-12)]


@pytest.mark.parametrize("theta, rungs", [(0.3, 61), (0.5, 61), (0.9, 357), (0.99, 3726)])
def test_the_ladder_ends_where_one_minus_the_step_rounds_to_one(theta, rungs):
    ladder = core._ladder(theta, 0.1)
    assert len(ladder) == rungs
    assert 1.0 - ladder[-1][0] == 1.0


@pytest.mark.parametrize("theta", [0.999, 1.0 - 1e-12, math.nextafter(1.0, 0.0)])
def test_the_ladder_and_the_search_stay_bounded_as_theta_nears_1(theta):
    # 1 - theta^m would round to 1 only after some 37/(1 - theta) rungs
    # (3.4e17 at the largest theta below 1); the ladder stops at MAX_RUNGS
    tracemalloc.start()
    try:
        ladder = core._ladder.__wrapped__(theta, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ladder) == core.MAX_RUNGS and 1.0 - ladder[-1][0] < 1.0
    assert peak < 4 * 2 ** 20
    # the search of test_armijo_trial_cap_is_an_error ends at the last rung
    f = scalar_objective(lambda t: abs(t - 1.0), lambda t: -1.0)
    with pytest.raises(LineSearchError) as err:
        armijo_step(f, [1.0], 0, 0.0, -1.0, 0.5, theta, f_x=0.0)
    assert err.value.trials == f.kf == core.MAX_RUNGS


@pytest.mark.parametrize("theta, beta", [(0.5, 0.5), (0.3, 0.1), (0.9, 0.9)])
def test_the_ladder_screen_takes_the_decisions_of_value_minus_margin(theta, beta):
    ladder = core._ladder(theta, beta)
    rungs = len(ladder)
    for k, (lam, blam, *_) in enumerate(ladder):
        assert (repr(lam), repr(blam)) == (repr(theta ** k), repr(beta * theta ** k))
    opened = set()
    for ray in _screened_rays():
        ends = [ray_value(ray, 1.0), ray_value(ray, 0.5), ray_value(ray, 0.0)]
        for f_x in [v for v in ends if math.isfinite(v)] or [1.0]:
            for dd in (-1e-6, -1.0, -1e6):
                expected = _reference_first_opens(ray, theta, beta, rungs, f_x, dd)
                for m in range(rungs + 1):
                    got = ray.first_open(ladder, m, f_x, dd)
                    assert got == expected[m]
                    opened.add(got - m)
    # the cases reach both the first rung, deep rungs and past the last one
    assert 0 in opened and max(opened) == rungs
    assert any(10 < k < rungs for k in opened)


@pytest.mark.parametrize("f", _ray_objectives(), ids=RAY_IDS)
def test_value_gradient_and_ray_read_one_memo_in_either_order(f):
    x = _frozen(10.0 * np.random.default_rng(5).dirichlet(np.ones(f.n)))

    def readings(g, order):
        # the first call makes x the cached key, with an empty memo
        out = {}
        for name in order:
            if name == "value":
                out[name] = g.value(x)
            elif name == "gradient":
                out[name] = tuple(g.gradient(x))
            else:
                out[name] = tuple(g.vertex_ray(x, 2, 10.0))
        return repr(sorted(out.items()))

    first = readings(f, ("value", "gradient", "ray"))
    assert readings(_twin(f), ("gradient", "ray", "value")) == first
    assert readings(_twin(f), ("value", "ray", "gradient")) == first
    assert readings(_twin(f), ("gradient", "value", "ray")) == first
    # and a fresh evaluation, from an untrusted copy, gives the same bits
    fresh = _twin(f)
    assert repr((fresh.value(x.copy()), tuple(fresh.gradient(x.copy())))) == \
        repr((f.value(x), tuple(f.gradient(x))))
    # the gradient is the state's own vector g, plus the barrier term, in a
    # new array, and reading it adds no entry to the state
    h = _twin(f)
    grad = h.gradient(x)
    state = h._cache_state
    assert sorted(state) == sorted(type(h)._make_state(h, x))
    g = state["g"] if h.c is None else state["g"] - h.c / (state["u"] + h.d) ** 2
    assert grad.tobytes() == g.tobytes() and not np.shares_memory(grad, state["g"])


@pytest.mark.parametrize("f", _ray_objectives(), ids=RAY_IDS)
def test_armijo_evaluates_a_trial_inside_the_ray_margin(f):
    x, i, b = _uphill_ray(f)
    ray = f.vertex_ray(x, i, b)
    phi = ray_value(ray, 1.0)
    exact = _twin(f).value(step_point(x, i, b, 1.0))
    # the first trial's threshold lies within the margin below the ray value
    # and below f at the trial, so only its evaluation can reject it
    f_x = min(phi, exact) - ray.margin / 4.0 + 0.5
    threshold = f_x + 0.5 * 1.0 * -1.0
    assert phi - ray.margin < threshold < min(phi, exact)
    evaluated = []
    value = f.value
    f.value = lambda y: evaluated.append(y) or value(y)
    res = armijo_step(f, x, i, b, -1.0, 0.5, 0.5, f_x)
    # f is convex and rising along the ray, so f(0.5) < f(1) - 0.25 + 0.5
    assert (res.trials, res.step) == (2, 0.5)
    assert len(evaluated) == 2
    assert np.array_equal(evaluated[0], step_point(x, i, b, 1.0))


@pytest.mark.parametrize("f", _ray_objectives(), ids=RAY_IDS)
def test_armijo_rejects_unevaluated_a_trial_far_above_its_threshold(f):
    x, i, b = _uphill_ray(f)
    f1, f0 = f.value(step_point(x, i, b, 1.0)), f.value(x)
    # thresholds: (f0 + f1)/2 - 0.25 at lam = 1, far below f1, and at
    # lam = 0.5 just above (f0 + f1)/2 >= f(0.5), as f is convex on the ray
    f_x = 0.5 * (f0 + f1) + 0.25 + 1e-9 * abs(f1)
    evaluated = []
    value = f.value
    f.value = lambda y: evaluated.append(y) or value(y)
    res = armijo_step(f, x, i, b, -1.0, 0.5, 0.5, f_x)
    assert (res.trials, res.step) == (2, 0.5)
    assert len(evaluated) == 1
    assert np.array_equal(evaluated[0], step_point(x, i, b, 0.5))


def test_vertex_ray_only_from_a_built_state_at_the_cached_key():
    spec = ProblemSpec(series=1, n=150)
    f, D, x0 = build_instance(spec)
    x = _frozen(x0)
    assert f.vertex_ray(x, 0, 10.0) is None  # x is not cached yet
    f.value(x)
    assert f.vertex_ray(x, 0, 10.0) is not None
    assert f.vertex_ray(_frozen(x0), 0, 10.0) is None  # equal values, another key
    x_new = f.vertex_step(x, 0, D.b, 0.5)
    assert f._cache_x is x_new  # a derived state
    assert f.vertex_ray(x_new, 1, 10.0) is None
    f.value(_frozen(x_new))
    f.value(x_new)  # rebuilt by _make_state
    assert f.vertex_ray(x_new, 1, 10.0) is not None


def test_vertex_ray_declines_when_not_finite():
    f = QuadraticFormObjective(1e308 * np.eye(2))
    x = _frozen([5.0, 5.0])
    with np.errstate(over="ignore"):
        assert f.value(x) == math.inf
        assert f.vertex_ray(x, 0, 10.0) is None


def test_quadratic_form_rejects_a_non_symmetric_p():
    # its gradient would be 0.5 (P + P^T) x, not the Px that the oracle returns
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticFormObjective(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticFormObjective(np.array([[1.0, 0.1 + 0.2], [0.3, 1.0]]))


@pytest.mark.parametrize("d, offered",
                         [(20.0, True), (5.0, False), (10.0 + 4e-14, False), (-20.0, False)],
                         ids=["clear", "pole-on-the-ray", "within-the-bound", "negative"])
def test_vertex_ray_declines_when_the_barrier_denominator_may_vanish(d, offered):
    # from x = (5, 5) toward 10*e_1 the denominator <c,y> + d runs from d
    # down to d - 10, which is 4e-14 for the third d: positive, but inside
    # its rounding bound; for d = -20 it is negative on the whole ray, where
    # the barrier is concave and its tangent lies above it
    f = QuadraticFormObjective(np.eye(2), barrier=([1.0, -1.0], d))
    x = _frozen([5.0, 5.0])
    f.value(x)
    assert (f.vertex_ray(x, 1, 10.0) is not None) is offered
