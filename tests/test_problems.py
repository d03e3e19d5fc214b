"""Problem generators: frozen scalar values, structure, convexity, bounds."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condgrad import core, problems
from condgrad.core import COORD_FLOOR, SimplexSet, step_point
from condgrad.harness import default_plan
from condgrad.problems import (
    LeastSquaresObjective,
    ProblemSpec,
    QuadraticFormObjective,
    build_instance,
    build_phi1_matrix,
    build_phi2_terms,
    build_phi3_data,
    lipschitz_upper_bound,
    make_objective,
)
from condgrad.solvers import SolverConfig, solve_cgm, solve_cgmil

from helpers import CallableObjective, phi1_triu, phi3_one_shot, random_simplex_points, ray_value

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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 50, 129, 500,
                               181, 182, 183, 1000])  # one block up to 181, then several
def test_phi1_matches_the_triu_formula_bit_for_bit(n):
    assert build_phi1_matrix(n).tobytes() == phi1_triu(n).tobytes()


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


# the rows in one block at n = 1000
EDGE = problems._BLOCK_ENTRIES // 1000


@pytest.mark.parametrize("m, n", [
    (1, 1), (2, 5), (25, 50), (33, 7), (7, 33), (250, 500), (500, 1000), (1000, 500),
    (EDGE - 1, 1000), (EDGE, 1000), (EDGE + 1, 1000),
    (2 * EDGE - 1, 1000), (2 * EDGE + 1, 1000), (3, 40_000),  # a row wider than a block
])
def test_phi3_row_blocks_match_the_one_shot_formula_bit_for_bit(m, n):
    P, q = build_phi3_data(m, n, 10.0)
    Pr, qr = phi3_one_shot(m, n, 10.0)
    assert P.shape == (m, n) and q.shape == (m,)
    assert P.tobytes() == Pr.tobytes() and q.tobytes() == qr.tobytes()


def test_phi3_build_holds_its_result_and_one_block_of_temporaries():
    # the one-shot formula (`phi3_one_shot`) holds three full-size
    # temporaries at once: an 11.6 MiB peak for a 3.8 MiB result here
    tracemalloc.start()
    try:
        P, q = build_phi3_data(500, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= P.nbytes + q.nbytes + 2 ** 20


def test_phi1_build_holds_its_result_and_one_block_of_temporaries():
    # the triu formula (`phi1_triu`) holds three full-size temporaries at
    # once: a 22.9 MiB peak for a 7.6 MiB result here
    tracemalloc.start()
    try:
        P = build_phi1_matrix(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= P.nbytes + 2 ** 20


@pytest.mark.parametrize("spec", [ProblemSpec(series=4, n=1000, m=500),
                                  ProblemSpec(series=4, n=7, m=4), ProblemSpec(series=2, n=50)],
                         ids=["500x1000", "4x7", "50x50"])
def test_ray_constants_take_the_row_sums_of_abs_p_one_block_at_a_time(spec):
    f = make_objective(spec)
    P = f.P
    R = np.abs(P).sum(axis=1)  # the full-size reference
    # no full-size |P|: the result, one block and a few row-length vectors
    tracemalloc.start()
    try:
        got = f._ray_constants()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * problems._BLOCK_ENTRIES + 64 * P.shape[0] + 2 ** 16
    # each row is reduced on its own, so every constant keeps its bits: the
    # vectors h and p compared by their bytes, the scalars by repr
    total = float(R.sum()) + float(np.abs(f.c).sum()) + abs(f.d)
    quad, q_sum = f._quad_bounds(R, float(R.max()))
    for vector, expected in zip(got[0][:2], quad[:2]):
        assert np.asarray(vector).tobytes() == np.asarray(expected).tobytes()
    assert repr((got[0][2:],) + got[1:4]) == repr(
        (quad[2:], float(R.max()), total + q_sum, float(np.abs(f.c).max())))


def _point_entries(b):
    # entries down to COORD_FLOOR, tiny ones whose squares underflow, and
    # ones up to the mass
    return st.one_of(st.floats(COORD_FLOOR, 0.0), st.floats(0.0, 1e-150),
                     st.floats(0.0, b), st.just(b))


def _norm1_bound(x):
    """`_norm1_bound` at x, with the constants of an objective on R^n (one
    row of P, so that any n is cheap)."""
    f = LeastSquaresObjective(np.ones((1, x.shape[0])), np.ones(1))
    return f._norm1_bound(x, *f._ray_constants()[-2:])


@st.composite
def points_and_masses(draw):
    n = draw(st.integers(1, 64))
    b = 10.0 ** draw(st.floats(-3.0, 150.0))
    return draw(st.lists(_point_entries(b), min_size=n, max_size=n)), b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=points_and_masses())
def test_the_ray_s_bounds_the_l1_norm(case):
    entries, b = case
    x = np.array(entries)
    # the ray's s = max(that bound, |b|)
    assert _norm1_bound(x) >= math.fsum(abs(x))
    assert max(_norm1_bound(x), abs(b)) >= math.fsum(abs(x))


def test_the_ray_s_bounds_the_l1_norm_where_cauchy_schwarz_is_tight():
    # equal magnitudes meet sqrt(n <x, x>) = ||x||_1 in exact arithmetic, so
    # only the rounding allowance keeps the computed bound above the norm
    rng = np.random.default_rng(23)
    for n in list(range(1, 130)) + [500, 1000, 4096]:
        for v in np.concatenate([rng.uniform(0.1, 10.0, 20), [10.0 / n, 1e-160, 5e-324],
                                 10.0 ** rng.uniform(-150, 150, 20)]):
            x = np.full(n, v)
            x[::2] *= -1.0
            assert _norm1_bound(x) >= math.fsum(abs(x)), (n, v)


@st.composite
def barrier_rays(draw):
    """An objective with a barrier of mixed-sign c, a point x anywhere in a
    box of the mass's size, and a vertex ray from x on which the barrier's
    denominator stays positive: d lifts the smaller end to `clear`."""
    n = draw(st.integers(1, 8))
    b = 10.0 ** draw(st.floats(-2.0, 4.0))
    x = np.array(draw(st.lists(st.floats(-b, b), min_size=n, max_size=n)))
    c = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    i = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        A = rng.standard_normal((n, n))
        P = A + A.T
    else:
        P = rng.standard_normal((draw(st.integers(1, 8)), n))
    d = 10.0 ** draw(st.floats(-3.0, 3.0)) - min(float(c.dot(x)), float(c[i]) * b)
    return P, x, c, d, i, b


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=barrier_rays(), theta=st.sampled_from([0.3, 0.5, 0.9]))
def test_the_barrier_ray_minus_its_margin_stays_below_value_on_every_rung(case, theta):
    P, x, c, d, i, b = case
    if P.shape[0] == P.shape[1] and (P == P.T).all():
        f = QuadraticFormObjective(P, barrier=(c, d))
    else:
        f = LeastSquaresObjective(P, np.linspace(-1.0, 1.0, P.shape[0]), barrier=(c, d))
    x = x.copy()
    x.setflags(write=False)
    f.value(x)  # x is the cached key
    ray = f.vertex_ray(x, i, b)
    assume(ray is not None)
    for lam, *_ in core._ladder(theta, 0.5):
        y = step_point(x, i, b, lam)
        assert ray_value(ray, lam) - ray.margin <= f.value(y), lam


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
    # sizes are integers: no bool, no float, even integral, no string
    for build in (build_phi1_matrix, build_phi2_terms):
        for bad in (True, 2.5, 3.0, np.float64(3.0), "3", None):
            with pytest.raises(ValueError):
                build(bad)
    for m, n in ((2, 3.5), (2.5, 3), (True, 3), (2, "3"), (2, 3.0)):
        with pytest.raises(ValueError):
            build_phi3_data(m, n)
    assert build_phi1_matrix(np.int64(3)).shape == (3, 3)
    assert build_phi3_data(np.int32(2), 3)[0].shape == (2, 3)


def _cgmil_with(lipschitz):
    f, D, x0 = build_instance(ProblemSpec(series=1, n=3))
    return solve_cgmil(f, D, SolverConfig(), x0, lipschitz=lipschitz)


@pytest.mark.parametrize("make, message", [
    (lambda: CallableObjective(0, None, None), "n must be an integer >= 1, got 0"),
    (lambda: ProblemSpec(series=1, n=0), "n must be an integer >= 1, got 0"),
    (lambda: ProblemSpec(series=3, n=5),
     "series 3's row count m must be an integer >= 1, got None"),
    (lambda: ProblemSpec(series=4, n=5, m=0),
     "series 4's row count m must be an integer >= 1, got 0"),
    (lambda: ProblemSpec(series=1, n=5, b=0.0), "b must be a positive finite real, got 0.0"),
    (lambda: build_phi1_matrix(2.0), "n must be an integer >= 1, got 2.0"),
    (lambda: build_phi2_terms(True), "n must be an integer >= 1, got True"),
    (lambda: build_phi3_data(0, 5), "m must be an integer >= 1, got 0"),
    (lambda: build_phi3_data(2, "5"), "n must be an integer >= 1, got '5'"),
    (lambda: build_phi3_data(2, 5, b=-1.0), "b must be a positive finite real, got -1.0"),
    (lambda: SolverConfig(eps=0.0), "eps must be a positive finite real, got 0.0"),
    (lambda: SolverConfig(delta0=math.inf), "delta0 must be a positive finite real, got inf"),
    (lambda: SolverConfig(max_iterations=-1), "max_iterations must be an integer >= 0, got -1"),
    (lambda: _cgmil_with(0.0), "lipschitz must be a positive finite real, got 0.0"),
    (lambda: SimplexSet(0), "n must be an integer >= 1, got 0"),
    (lambda: SimplexSet(3, math.nan), "b must be a positive finite real, got nan"),
], ids=["objective-n", "spec-n", "spec-m-missing", "spec-m", "spec-b", "phi1-n", "phi2-n",
        "phi3-m", "phi3-n", "phi3-b", "eps", "delta0", "max-iterations", "lipschitz",
        "simplex-n", "simplex-b"])
def test_each_input_rule_refuses_with_its_one_message(make, message):
    # "an integer >= low" and "a positive finite real" are each stated in
    # one message, wherever the rule is checked
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make()


@pytest.mark.parametrize("make", [
    lambda barrier: QuadraticFormObjective(np.eye(3), barrier=barrier),
    lambda barrier: LeastSquaresObjective(np.eye(3), np.ones(3), barrier=barrier),
], ids=["quadratic", "least-squares"])
def test_barrier_offset_is_a_finite_real(make):
    # the offset is a finite real, as every real parameter is
    for bad in ("5", True, np.bool_(True), np.float32(5.0), None, math.nan, math.inf):
        with pytest.raises(ValueError, match="barrier offset"):
            make((np.ones(3), bad))
    for good in (5, np.int64(5), np.float64(5.0), 5.0):
        assert make((np.ones(3), good)).d == 5.0


def test_objective_data_holds_real_numbers():
    # P, q and the barrier's c follow the vectors' dtype rule: a string,
    # complex, bool or object array is refused, not parsed or truncated
    eye = np.eye(2)
    makers = (
        lambda bad: QuadraticFormObjective(bad),
        lambda bad: LeastSquaresObjective(bad, np.ones(2)),
        lambda bad: LeastSquaresObjective(eye, bad[0]),
        lambda bad: QuadraticFormObjective(eye, barrier=(bad[0], 5.0)),
        lambda bad: LeastSquaresObjective(eye, np.ones(2), barrier=(bad[0], 5.0)),
    )
    bads = (np.array([["2", "0"], ["0", "2"]]), eye.astype(complex) + 1j * eye,
            eye.astype(bool), eye.astype(object))
    for make in makers:
        for bad in bads:
            with pytest.raises(ValueError, match="real numbers"):
                make(bad)
    # integer data is converted; writable float64 data is held as a frozen
    # copy, and a trusted array as it is
    assert QuadraticFormObjective([[2, 0], [0, 2]]).value(np.ones(2)) == 2.0
    P, q, c = np.eye(2), np.ones(2), np.ones(2)
    f = LeastSquaresObjective(P, q, barrier=(c, 5.0))
    for held, given in ((f.P, P), (f.q, q), (f.c, c)):
        assert held is not given and core._trusted(held) and np.array_equal(held, given)
    frozen = _frozen(np.eye(2))
    assert QuadraticFormObjective(frozen).P is frozen


NON_FINITE_DATA = {
    # a symmetric P with an infinite pair constructed, and its gradient was
    # infinite; a NaN failed the symmetry test instead
    "quadratic-P": ("P", lambda bad: QuadraticFormObjective(np.array([[2.0, bad], [bad, 2.0]]))),
    "quadratic-P-diagonal": ("P", lambda bad: QuadraticFormObjective(np.diag([2.0, bad]))),
    "least-squares-P": ("P", lambda bad: LeastSquaresObjective(np.array([[1.0, bad], [0.0, 1.0]]),
                                                               np.ones(2))),
    # an infinite q gave an infinite value
    "least-squares-q": ("q", lambda bad: LeastSquaresObjective(np.eye(2), np.array([bad, 1.0]))),
    # a NaN in c gave a NaN value
    "quadratic-c": ("barrier vector c", lambda bad: QuadraticFormObjective(
        np.eye(2), barrier=(np.array([1.0, bad]), 5.0))),
    "least-squares-c": ("barrier vector c", lambda bad: LeastSquaresObjective(
        np.eye(2), np.ones(2), barrier=(np.array([1.0, bad]), 5.0))),
}


@pytest.mark.parametrize("case", NON_FINITE_DATA)
def test_objective_data_must_be_finite(case):
    name, make = NON_FINITE_DATA[case]
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make(bad)


def test_finite_data_may_square_past_the_float_range():
    # entries above about 1.3e154 overflow the one-dot check, and the exact
    # check takes them
    big = np.array([[1e200, 0.0], [0.0, 1e200]])
    assert np.array_equal(QuadraticFormObjective(big).P, big)
    assert np.array_equal(LeastSquaresObjective(big, np.array([1e200, -1e200])).P, big)


@pytest.mark.parametrize("make", [
    lambda: QuadraticFormObjective(1e308 * np.eye(2)),
    lambda: LeastSquaresObjective(1e308 * np.eye(2), np.array([1e308, -1e308])),
], ids=["quadratic", "least-squares"])
def test_data_whose_ray_constants_overflow_construct_without_a_warning(make):
    # the constants overflow to inf at construction, quietly, and the
    # vertex ray declines at its finiteness test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = make()
    assert f._ray_bounds[2] == math.inf  # the data's total magnitude
    x = _frozen(np.array([5.0, 5.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        f.value(x)
        assert f.vertex_ray(x, 0, 10.0) is None


@pytest.mark.parametrize("make", [
    lambda P, q, c: QuadraticFormObjective(P, barrier=(c, 5.0)),
    lambda P, q, c: LeastSquaresObjective(P, q, barrier=(c, 5.0)),
], ids=["quadratic", "least-squares"])
def test_a_write_to_the_callers_arrays_changes_no_output(make):
    # the caller's writable arrays are copied at construction, so writes
    # after it (an asymmetric P, a NaN q, a changed c) reach no oracle
    P, q, c = build_phi1_matrix(3), np.array([1.0, -2.0, 0.5]), np.array([1.0, 2.0, 3.0])
    x = np.array([1.0, 2.0, 7.0])
    f = make(P, q, c)
    key = _frozen(x.copy())
    before = (f.value(x), f.gradient(x).tobytes(), f.value(key), f.vertex_ray(key, 1, 10.0))
    P[0, 1] += 3.0
    q[0] = math.nan
    c[2] = -100.0
    fresh = _frozen(x.copy())
    after = (f.value(x), f.gradient(x).tobytes(), f.value(fresh), f.vertex_ray(fresh, 1, 10.0))
    assert repr(after) == repr(before)


def test_a_least_squares_p_needs_a_row():
    # with no rows the ray's constants would reduce an empty array
    with pytest.raises(ValueError, match="^P must be a matrix with at least one row"):
        LeastSquaresObjective(np.ones((0, 3)), np.ones(0), barrier=(np.array([1.0, 2.0, 3.0]), 5.0))


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
# kept datasets

# the benchmark workloads' cells that the default grid does not hold
LARGE_SPECS = (ProblemSpec(series=1, n=500), ProblemSpec(series=2, n=500),
               ProblemSpec(series=3, n=500, m=250), ProblemSpec(series=4, n=500, m=250),
               ProblemSpec(series=3, n=1000, m=500), ProblemSpec(series=4, n=1000, m=500))


def _clear_caches():
    problems._checked_objective.cache_clear()


def test_kept_data_are_the_builders_bytes_on_every_grid_and_workload_cell():
    for spec in default_plan().cells + LARGE_SPECS:
        f = make_objective(spec)
        if spec.series in (1, 2):
            assert f.P.tobytes() == build_phi1_matrix(spec.n).tobytes(), spec
        else:
            P, q = build_phi3_data(spec.m, spec.n, spec.b)
            assert f.P.tobytes() == P.tobytes() and f.q.tobytes() == q.tobytes(), spec
        if spec.series in (2, 4):
            c, d = build_phi2_terms(spec.n)
            assert f.c.tobytes() == c.tobytes() and f.d == d, spec
        else:
            assert f.c is None


def test_kept_data_are_read_only_and_the_builders_return_writable_copies():
    for spec in ALL_SPECS:
        f = make_objective(spec)
        for a in (f.P, getattr(f, "q", None), f.c):
            assert a is None or not a.flags.writeable, spec
        with pytest.raises(ValueError, match="read-only"):
            f.P[0, 0] = 1.0
    for a in (build_phi1_matrix(7), build_phi2_terms(7)[0], *build_phi3_data(4, 7)):
        assert a.flags.writeable
    assert build_phi1_matrix(7) is not build_phi1_matrix(7)


def test_objectives_of_one_dataset_share_its_arrays():
    for spec in ALL_SPECS:
        assert build_instance(spec)[0].P is build_instance(spec)[0].P
    s1, s2, s3, s4 = (make_objective(spec) for spec in ALL_SPECS)
    # series 2 and 4 add a barrier to the data of series 1 and 3
    assert s1.P is s2.P and s3.P is s4.P and s3.q is s4.q
    # each barrier is its own spec's, with the same bytes across the families
    assert s2.c is not s4.c and s2.c.tobytes() == s4.c.tobytes()
    # a spec is keyed by all it holds: the mass changes q
    other = make_objective(ProblemSpec(series=3, n=7, m=4, b=2.0))
    assert other.P is not s3.P and other.q.tobytes() != s3.q.tobytes()


def test_a_dataset_dropped_from_the_cache_is_rebuilt_with_the_same_bytes():
    _clear_caches()
    sizes = range(1, problems._DATA_CACHE_SIZE + 2)
    kept = {n: make_objective(ProblemSpec(series=1, n=n)).P for n in sizes}
    # the first size was the least recently used: it was dropped and is
    # generated again, and the last one is still kept
    again = make_objective(ProblemSpec(series=1, n=1)).P
    assert again is not kept[1] and again.tobytes() == kept[1].tobytes()
    assert make_objective(ProblemSpec(series=1, n=sizes[-1])).P is kept[sizes[-1]]


def test_lipschitz_is_the_memo_of_the_spec_s_checked_objective(monkeypatch):
    expected = [lipschitz_upper_bound(spec, SimplexSet(spec.n, spec.b)) for spec in ALL_SPECS]

    def refuse(spec):
        raise AssertionError("lipschitz_upper_bound built a copy")

    _clear_caches()
    monkeypatch.setattr(problems, "make_objective", refuse)
    monkeypatch.setattr(problems, "_copy", refuse)
    for spec, L in zip(ALL_SPECS, expected):
        assert repr(lipschitz_upper_bound(spec, SimplexSet(spec.n, spec.b))) == repr(L)
        assert repr(vars(problems._checked_objective(spec))["_lipschitz_bound"]) == repr(L)


# ---------------------------------------------------------------------------
# data checks: on every construction, and once per spec for make_objective

def _frozen(a):
    a.setflags(write=False)
    return a


def _count_checks(monkeypatch):
    """Count the full finiteness and symmetry scans the constructors run."""
    calls = {"finite": 0, "symmetric": 0}

    def counted(name, check):
        def scan(a):
            calls[name] += 1
            return check(a)
        return scan

    monkeypatch.setattr(problems, "_all_finite", counted("finite", problems._all_finite))
    monkeypatch.setattr(problems, "_symmetric", counted("symmetric", problems._symmetric))
    return calls


def test_a_direct_construction_scans_its_data_on_every_call(monkeypatch):
    kept = make_objective(ProblemSpec(series=1, n=7)).P
    kept3 = make_objective(ProblemSpec(series=3, n=7, m=4))
    calls = _count_checks(monkeypatch)
    # a caller's frozen array, a writeable one, a read-only view of kept
    # data, an integer array (converted to a fresh copy) and a kept array
    sources = (_frozen(build_phi1_matrix(7)), build_phi1_matrix(7),
               kept[:, :], _frozen(np.array([[2, 1], [1, 2]])), kept)
    for P in sources:
        for _ in range(3):
            QuadraticFormObjective(P)
    assert calls == {"finite": 15, "symmetric": 15}
    calls.update(finite=0)
    A, q = kept3.P, kept3.q
    c = _frozen(build_phi2_terms(7)[0])
    for _ in range(3):
        LeastSquaresObjective(A, q, barrier=(c, 5.0))
    assert calls == {"finite": 9, "symmetric": 15}


def test_a_change_to_the_data_is_caught_on_the_next_construction():
    # built on, changed in place (or thawed, changed and frozen again), and
    # built on again: the change is caught
    for freeze in (_frozen, lambda a: a):
        for bad, message in ((math.nan, "^P must be finite"),
                             (np.nextafter(build_phi1_matrix(7)[2, 3], math.inf),
                              "^P must be symmetric$")):
            P = freeze(build_phi1_matrix(7))
            QuadraticFormObjective(P)
            P.setflags(write=True)
            P[2, 3] = bad
            with pytest.raises(ValueError, match=message):
                QuadraticFormObjective(freeze(P))
    A, q = build_phi3_data(4, 7)
    c = build_phi2_terms(7)[0]
    LeastSquaresObjective(A, q, barrier=(c, 5.0))
    c[1] = math.inf
    with pytest.raises(ValueError, match="^barrier vector c must be finite"):
        LeastSquaresObjective(A, q, barrier=(c, 5.0))
    q[0] = math.nan
    with pytest.raises(ValueError, match="^q must be finite"):
        LeastSquaresObjective(A, q)


def test_a_kept_array_that_fails_a_check_fails_it_on_every_build(monkeypatch):
    # a square least-squares matrix is kept, finite and not symmetric
    kept = make_objective(ProblemSpec(series=3, n=7, m=7))
    P, q = kept.P, kept.q
    calls = _count_checks(monkeypatch)
    LeastSquaresObjective(P, q)
    for _ in range(3):
        with pytest.raises(ValueError, match="^P must be symmetric$"):
            QuadraticFormObjective(P)
    assert calls == {"finite": 2 + 3, "symmetric": 3}


def test_make_objective_checks_each_spec_once_per_process(monkeypatch):
    calls = _count_checks(monkeypatch)
    _clear_caches()
    for spec in ALL_SPECS:
        build_instance(spec)
    # each spec's P, c and q for finiteness, series 1 and 2 sharing P, and
    # the quadratic forms' P for symmetry
    once = dict(calls)
    assert once == {"finite": 1 + 2 + 2 + 3, "symmetric": 2}
    _clear_caches()
    calls.update(finite=0, symmetric=0)
    for spec in ALL_SPECS * 3:
        build_instance(spec)
    assert calls == once


def test_make_objective_hands_out_a_fresh_copy_on_every_call():
    cfg = SolverConfig()
    _clear_caches()  # no checked objective holds a Lipschitz bound yet
    for spec in ALL_SPECS:
        D = SimplexSet(spec.n, spec.b)
        used = make_objective(spec)
        assert used is not make_objective(spec)
        # instrumented through instance attributes, as the benchmark's
        # tracer wraps the oracle, and run
        calls = []
        value = used.value
        used.value = lambda x: calls.append(x) or value(x)
        first = solve_cgm(used, D, cfg, D.barycenter())
        assert calls and used.kf
        fresh = make_objective(spec)
        assert (fresh.kf, fresh.kg, fresh._derived) == (0, 0, 0)
        assert fresh._cache_x is None and fresh._cache_state is None
        assert "value" not in vars(fresh)
        # the ray constants are the checked objective's, shared, not redone
        assert fresh._ray_bounds is used._ray_bounds is problems._checked_objective(spec)._ray_bounds
        # the attributes of a constructed objective, in the same order
        barrier = None if fresh.c is None else (fresh.c, fresh.d)
        built = (QuadraticFormObjective(fresh.P, barrier) if spec.series in (1, 2)
                 else LeastSquaresObjective(fresh.P, fresh.q, barrier))
        assert type(fresh) is type(built) and list(vars(fresh)) == list(vars(built))
        again = solve_cgm(fresh, D, cfg, D.barycenter())
        assert again.counters == first.counters and again.x.tobytes() == first.x.tobytes()
        assert (fresh.kf, fresh.kg) == (used.kf, used.kg)


# ---------------------------------------------------------------------------
# assembled objectives

def test_no_warm_solve_computes_an_instance_constant(monkeypatch):
    # the ray constants are computed once per checked objective, at
    # construction, and the Lipschitz bound (P^T P for least squares) on the
    # first request: warm set-up and solves compute neither
    row_sums, hessians = [], []
    abs_row_sums = problems._abs_row_sums
    monkeypatch.setattr(problems, "_abs_row_sums",
                        lambda M: row_sums.append(M.shape) or abs_row_sums(M))
    for cls in (QuadraticFormObjective, LeastSquaresObjective):
        hessian = cls._hessian
        monkeypatch.setattr(cls, "_hessian",
                            lambda f, hessian=hessian: hessians.append(f) or hessian(f))
    _clear_caches()
    for spec in ALL_SPECS:
        build_instance(spec)
    # one ray-constant scan per checked objective, and no Hessian
    assert len(row_sums) == len(ALL_SPECS) and hessians == []
    for spec in ALL_SPECS:
        lipschitz_upper_bound(spec, SimplexSet(spec.n, spec.b))
    assert hessians == [problems._checked_objective(spec) for spec in ALL_SPECS]
    del row_sums[:], hessians[:]
    cfg = SolverConfig()
    for _ in range(3):
        for spec in ALL_SPECS:
            f, D, x0 = build_instance(spec)
            L = lipschitz_upper_bound(spec, D)
            solve_cgm(f, D, cfg, x0)
            solve_cgmil(make_objective(spec), D, cfg, x0, L)
    assert row_sums == [] and hessians == []


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
            after.vertex_ray(x, 0, spec.b)
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
        # the uncharged methods, at a cached key
        key = x.copy()
        key.setflags(write=False)
        obj.value(key)
        assert obj.vertex_ray(key, 0, spec.b) is not None
        obj.vertex_step(key, 0, spec.b, 0.5)
        assert (obj.kf, obj.kg) == (2, 2 * spec.n)
        # <f'(x), x> is declared cheap, a charge rule without an oracle call
        assert obj.cheap_gradient_dot_point and not hasattr(obj, "gradient_dot_point")


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


def _lipschitz_reference(spec):
    """`lipschitz_upper_bound` with the row sums of a full-size |H|."""
    f = make_objective(spec)
    H = f.P if spec.series in (1, 2) else f.P.T @ f.P
    L = float(np.abs(H).sum(axis=1).max())
    if f.c is not None:
        L += 2.0 * float(np.dot(f.c, f.c)) / f.d ** 3
    return L


def test_lipschitz_keeps_its_bits_on_every_default_grid_cell():
    for spec in default_plan().cells:
        L = lipschitz_upper_bound(spec, SimplexSet(spec.n, spec.b))
        assert repr(L) == repr(_lipschitz_reference(spec)), spec


def test_lipschitz_holds_no_full_size_abs_of_the_hessian():
    spec = ProblemSpec(series=3, m=500, n=1000)
    tracemalloc.start()
    try:
        L = lipschitz_upper_bound(spec, SimplexSet(spec.n, spec.b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # P (4 MB) and P^T P (8 MB), but no second n x n array: a full-size
    # |P^T P| would take the peak past 19 MiB
    assert peak < 12 * 2 ** 20
    assert repr(L) == repr(_lipschitz_reference(spec))


def test_build_instance_start_is_feasible_barycenter():
    for spec in ALL_SPECS:
        obj, D, x0 = build_instance(spec)
        assert obj.n == D.n == spec.n
        assert D.contains(x0)
        assert np.allclose(x0, spec.b / spec.n)
