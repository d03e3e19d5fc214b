"""Problem generators: frozen scalar values, structure, convexity, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgrad.core import SimplexSet
from condgrad.problems import (
    ProblemSpec,
    build_instance,
    build_phi1_matrix,
    build_phi2_terms,
    build_phi3_data,
    lipschitz_upper_bound,
    make_objective,
)

from helpers import random_simplex_points

ALL_SPECS = (
    ProblemSpec(series=1, n=7),
    ProblemSpec(series=2, n=7),
    ProblemSpec(series=3, n=7, m=4),
    ProblemSpec(series=4, n=7, m=4),
)


# ---------------------------------------------------------------------------
# builders

def test_phi1_degenerate():
    assert np.array_equal(build_phi1_matrix(1), [[1.0]])


def test_phi1_frozen_entries():
    # direct scalar evaluation of the 1-based formulas
    P = build_phi1_matrix(2)
    p12 = math.sin(1) * math.cos(2)
    assert P[0, 1] == p12
    assert P[1, 0] == p12
    assert P[0, 0] == abs(p12) + 1.0
    assert P[1, 1] == abs(p12) + 1.0
    assert p12 == pytest.approx(-0.350175, abs=1e-6)


@given(st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_phi1_symmetric_and_diagonally_dominant(n):
    P = build_phi1_matrix(n)
    assert np.array_equal(P, P.T)
    off = np.abs(P).sum(axis=1) - np.abs(np.diag(P))
    assert np.all(np.diag(P) > off)


def test_phi2_frozen_terms():
    c, d = build_phi2_terms(5)
    assert d == 5.0
    assert c[0] == 2.0 + math.sin(1)
    assert c[0] == pytest.approx(2.841471, abs=1e-6)
    assert np.all((c >= 1.0) & (c <= 3.0))


def test_phi3_frozen_scalar_case():
    # direct evaluation: p11 = ln(2) sin(1) / 2 + 2, q1 = 10 p11
    P, q = build_phi3_data(1, 1, 10.0)
    expected = math.log(2.0) * math.sin(1.0) / 2.0 + 2.0
    assert P[0, 0] == expected
    assert q[0] == 10.0 * expected
    assert P[0, 0] == pytest.approx(2.291631620321297, rel=1e-15)


def test_phi3_structure():
    P, q = build_phi3_data(4, 9, 10.0)
    assert P.shape == (4, 9)
    assert np.all(np.diag(P[:, :4]) > 2.0)
    # q is P applied to the all-b vector
    assert np.allclose(q, P @ np.full(9, 10.0), rtol=1e-12, atol=0)


def test_builders_are_deterministic():
    assert np.array_equal(build_phi1_matrix(23), build_phi1_matrix(23))
    c1, _ = build_phi2_terms(23)
    c2, _ = build_phi2_terms(23)
    assert np.array_equal(c1, c2)
    Pa, qa = build_phi3_data(11, 23, 10.0)
    Pb, qb = build_phi3_data(11, 23, 10.0)
    assert np.array_equal(Pa, Pb) and np.array_equal(qa, qb)


def test_builder_validation():
    with pytest.raises(ValueError):
        build_phi1_matrix(0)
    with pytest.raises(ValueError):
        build_phi2_terms(0)
    with pytest.raises(ValueError):
        build_phi3_data(0, 3)
    with pytest.raises(ValueError):
        build_phi3_data(3, 3, b=-1.0)
    for bad in (True, "10", None, np.float32(10.0)):
        with pytest.raises(ValueError):
            build_phi3_data(3, 3, b=bad)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(series=5, n=3)
    with pytest.raises(ValueError):
        ProblemSpec(series=1, n=0)
    with pytest.raises(ValueError):
        ProblemSpec(series=3, n=5)            # missing m
    with pytest.raises(ValueError):
        ProblemSpec(series=1, n=5, m=2)       # m is meaningless here
    # dimensions and counts are integers: no bool, no float, even integral
    for bad in ({"series": 3, "n": 5, "m": 2.5}, {"series": 1, "n": True},
                {"series": True, "n": 5}, {"series": 1, "n": 5.0},
                {"series": 2.0, "n": 5}, {"series": 4, "n": 5, "m": False}):
        with pytest.raises(ValueError):
            ProblemSpec(**bad)
    # the mass is a finite real: no bool, no string, no None, and no float32,
    # whose products with a float step stay float32 under NumPy 2's rules
    for bad in (True, np.bool_(True), "10", None, np.float32(10.0), np.float16(10.0)):
        with pytest.raises(ValueError):
            ProblemSpec(series=1, n=3, b=bad)
    for good in (10, np.int64(10), np.float64(10.0), 10.0):
        assert build_instance(ProblemSpec(series=1, n=3, b=good))[1].b == 10
    # numpy integers are integers
    spec = ProblemSpec(series=np.int64(3), n=np.int32(5), m=np.int64(2))
    objective, feasible, x0 = build_instance(spec)
    assert spec.rows == 2 and feasible.n == 5 and objective.value(x0) >= 0.0
    assert ProblemSpec(series=3, n=5, m=2).rows == 2
    assert ProblemSpec(series=1, n=5).rows == 5


# ---------------------------------------------------------------------------
# assembled objectives

def test_series1_scalar_case():
    obj = make_objective(ProblemSpec(series=1, n=1))
    assert obj.value([10.0]) == 50.0
    assert obj.gradient([10.0])[0] == 10.0


def test_series3_residual_vanishes_at_all_b():
    for m, n in ((1, 1), (3, 5), (5, 10)):
        obj = make_objective(ProblemSpec(series=3, n=n, m=m))
        assert obj.value(np.full(n, 10.0)) == pytest.approx(0.0, abs=1e-18)


def test_series2_barrier_value_frozen():
    # phi2 at x=(5,5) as the series2/series1 difference; frozen by direct
    # scalar evaluation of 1/(5(c1+c2)+5)
    x = np.array([5.0, 5.0])
    f2 = make_objective(ProblemSpec(series=2, n=2)).value(x)
    f1 = make_objective(ProblemSpec(series=1, n=2)).value(x)
    assert f2 - f1 == pytest.approx(0.029626257013252093, rel=1e-12)


def test_gradient_bits_do_not_depend_on_call_order():
    rng = np.random.default_rng(3)
    for spec in ALL_SPECS:
        for x in random_simplex_points(rng, spec.n, spec.b, 20):
            x = x.copy()
            x.setflags(write=False)  # trusted: `after` reads one cached state
            first = make_objective(spec).gradient(x)
            after = make_objective(spec)
            after.value(x)
            after.gradient_dot_point(x)
            assert after.gradient(x).tobytes() == first.tobytes()


def test_objective_call_accounting():
    for spec in ALL_SPECS:
        obj = make_objective(spec)
        x = SimplexSet(spec.n, spec.b).barycenter()
        obj.value(x)
        assert (obj.kf, obj.kg) == (1, 0)
        obj.gradient(x)
        assert (obj.kf, obj.kg) == (1, spec.n)
        obj.gradient(x)
        assert (obj.kf, obj.kg) == (1, 2 * spec.n)
        assert obj.gradient_dot_point(x) is not None
        assert (obj.kf, obj.kg) == (1, 2 * spec.n)


def test_gradient_dot_point_consistency():
    rng = np.random.default_rng(5)
    for spec in ALL_SPECS:
        obj = make_objective(spec)
        for x in random_simplex_points(rng, spec.n, spec.b, 100):
            ref = float(np.dot(obj.gradient(x), x))
            fast = obj.gradient_dot_point(x)
            assert abs(fast - ref) <= 1e-9 * (1.0 + abs(ref))


def test_convexity_witness():
    rng = np.random.default_rng(9)
    for spec in ALL_SPECS:
        obj = make_objective(spec)
        xs = random_simplex_points(rng, spec.n, spec.b, 500)
        ys = random_simplex_points(rng, spec.n, spec.b, 500)
        for x, y in zip(xs, ys):
            fx, fy = obj.value(x), obj.value(y)
            for t in (0.25, 0.5, 0.75):
                mid = t * x + (1.0 - t) * y
                assert obj.value(mid) <= t * fx + (1.0 - t) * fy + 1e-9


def test_barrier_stays_positive_and_finite_on_simplex():
    rng = np.random.default_rng(13)
    c, d = build_phi2_terms(7)
    for x in random_simplex_points(rng, 7, 10.0, 200):
        u = float(np.dot(c, x))
        assert u + d >= d > 0.0
        assert math.isfinite(1.0 / (u + d))


# ---------------------------------------------------------------------------
# Lipschitz bounds

def test_lipschitz_scalar_case():
    spec = ProblemSpec(series=1, n=1)
    assert lipschitz_upper_bound(spec, SimplexSet(1, 10.0)) == 1.0


def test_lipschitz_dominates_closed_form_eigenvalue():
    P = build_phi1_matrix(2)
    a, b, c = P[0, 0], P[0, 1], P[1, 1]
    lam_max = (a + c) / 2.0 + math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    L = lipschitz_upper_bound(ProblemSpec(series=1, n=2), SimplexSet(2, 10.0))
    assert L >= lam_max - 1e-12


def test_lipschitz_dominates_sampled_gradient_ratios():
    rng = np.random.default_rng(17)
    for spec in ALL_SPECS:
        obj = make_objective(spec)
        L = lipschitz_upper_bound(spec, SimplexSet(spec.n, spec.b))
        xs = random_simplex_points(rng, spec.n, spec.b, 1000)
        ys = random_simplex_points(rng, spec.n, spec.b, 1000)
        for x, y in zip(xs, ys):
            dx = np.linalg.norm(y - x)
            if dx == 0.0:
                continue
            dg = np.linalg.norm(obj.gradient(y) - obj.gradient(x))
            assert dg / dx <= L * (1.0 + 1e-12)


def test_build_instance_start_is_feasible_barycenter():
    for spec in ALL_SPECS:
        obj, D, x0 = build_instance(spec)
        assert obj.n == D.n == spec.n
        assert D.contains(x0)
        assert np.allclose(x0, spec.b / spec.n)
