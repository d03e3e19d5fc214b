"""Oracle states derived across a vertex step, their refresh and size gate."""

import math

import numpy as np
import pytest

from condgrad import core, problems
from condgrad.core import step_point
from condgrad.problems import ProblemSpec, build_instance, lipschitz_upper_bound
from condgrad.solvers import SolverConfig, solve_cgmil, solve_cgmis, solve_cgms

# one instance of each series above the size gate, small enough to step fast
GATED = [ProblemSpec(series=1, n=150), ProblemSpec(series=2, n=150),
         ProblemSpec(series=3, n=150, m=150), ProblemSpec(series=4, n=150, m=150)]
WIDE = [ProblemSpec(series=1, n=256), ProblemSpec(series=2, n=256),
        ProblemSpec(series=3, n=256, m=128), ProblemSpec(series=4, n=256, m=128)]


def counting_builds(f):
    """Count `f`'s state builds, as the oracle makes them."""
    calls = []
    build = f._make_state
    f._make_state = lambda x: calls.append(1) or build(x)
    return calls


def rel_err(derived, fresh):
    derived, fresh = np.asarray(derived), np.asarray(fresh)
    return float(np.abs(derived - fresh).max() / np.abs(fresh).max())


def frozen(x):
    x = np.array(x, dtype=np.float64)
    x.setflags(write=False)
    return x


@pytest.mark.parametrize("spec", GATED, ids=lambda s: f"series{s.series}")
def test_derived_state_matches_a_fresh_build_and_refreshes(spec):
    assert spec.rows * spec.n >= problems.DERIVED_STATE_MIN_ENTRIES
    f, D, x0 = build_instance(spec)
    builds = counting_builds(f)
    rng = np.random.default_rng(spec.series)
    x = frozen(x0)
    f.value(x)
    steps = 2 * (f.n + 1) + 3
    for k in range(1, steps + 1):
        i, lam = int(rng.integers(f.n)), float(rng.uniform(0.01, 0.99))
        x_new = f.vertex_step(x, i, D.b, lam)
        f.value(x_new)
        # every (n+1)-th step is rebuilt, the others are derived
        assert len(builds) == 1 + k // (f.n + 1)
        assert f._cache_x is x_new
        fresh = type(f)._make_state(f, x_new)
        for key in ("px", "r", "u"):
            if key in fresh:
                assert rel_err(f._cache_state[key], fresh[key]) <= 1e-13, (k, key)
        x = x_new


@pytest.mark.parametrize("spec", WIDE, ids=lambda s: f"series{s.series}")
def test_cgms_builds_the_state_once_per_n_plus_one_steps(spec):
    f, D, x0 = build_instance(spec)
    builds = counting_builds(f)
    rep = solve_cgms(f, D, SolverConfig(max_iterations=2000), x0)
    assert rep.counters.it > f.n + 1
    assert len(builds) == 1 + rep.counters.it // (f.n + 1)


def test_no_derived_state_unless_x_is_the_key():
    f, D, x0 = build_instance(GATED[0])
    x = frozen(x0)
    f.value(x)
    cached = f._cache_state
    # the oracle builds every step itself, and refuses one off the simplex's
    # vertices or outside the segment from x to the vertex
    for i, lam in ((f.n, 0.5), (-1, 0.5), (True, 0.5), (3.0, 0.5), (3, 1.5), (3, -0.5),
                   (3, math.nan)):
        with pytest.raises(ValueError):
            f.vertex_step(x, i, D.b, lam)
        assert f._cache_x is x and f._cache_state is cached
    other = frozen(x0)  # equal values, but not the cached key
    x_new = f.vertex_step(other, 3, D.b, 0.5)
    assert x_new.tobytes() == step_point(other, 3, D.b, 0.5).tobytes()
    assert f._cache_x is x and f._cache_state is cached
    f.vertex_step(x, 3, math.inf, 0.5)  # a non-finite vertex
    assert f._cache_x is x and f._cache_state is cached
    x_new = f.vertex_step(x, 3, D.b, 0.5)
    assert x_new.tobytes() == step_point(x, 3, D.b, 0.5).tobytes()
    assert f._cache_x is x_new


def test_no_derived_state_below_the_size_gate():
    spec = ProblemSpec(series=1, n=100)
    assert spec.n * spec.n < problems.DERIVED_STATE_MIN_ENTRIES
    f, D, x0 = build_instance(spec)
    builds = counting_builds(f)
    x = frozen(x0)
    f.value(x)
    x_new = f.vertex_step(x, 0, D.b, 0.5)
    # x_new is the key with a state built at once, bit for bit a fresh one
    assert f._cache_x is x_new and len(builds) == 2
    assert np.array_equal(f._cache_state["px"], type(f)._make_state(f, x_new)["px"])


def _solve(spec, method, cfg):
    f, D, x0 = build_instance(spec)
    if method == "cgmil":
        return solve_cgmil(f, D, cfg, x0, lipschitz_upper_bound(spec, D)), f, D
    fn = solve_cgms if method == "cgms" else solve_cgmis
    return fn(f, D, cfg, x0), f, D


@pytest.mark.parametrize("method", ["cgms", "cgmis", "cgmil"])
@pytest.mark.parametrize("spec", WIDE, ids=lambda s: f"series{s.series}")
def test_derived_states_leave_the_run_unchanged(spec, method, monkeypatch):
    cfg = SolverConfig(max_iterations=4000)
    derived, f, D = _solve(spec, method, cfg)
    monkeypatch.setattr(problems, "DERIVED_STATE_MIN_ENTRIES", math.inf)
    rebuilt, _, _ = _solve(spec, method, cfg)
    assert derived.counters == rebuilt.counters
    assert derived.status == rebuilt.status
    assert derived.x.tobytes() == rebuilt.x.tobytes()
    assert abs(derived.f - rebuilt.f) <= 1e-12 * abs(rebuilt.f)
    # the gap is a difference of terms up to ~1e5 times larger than itself,
    # so its rounding is measured against those terms
    g = f.gradient(rebuilt.x)
    scale = abs(float(g @ rebuilt.x)) + D.b * float(np.abs(g).max())
    assert abs(derived.gap - rebuilt.gap) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# validation of a stepped iterate

def counting_scans(monkeypatch):
    """Count the oracle's full validations, as `as_vector` calls in core."""
    calls = []
    real = core.as_vector
    monkeypatch.setattr(core, "as_vector",
                        lambda x, n=None: calls.append(1) or real(x, n))
    return calls


SIZES = [ProblemSpec(series=2, n=20), GATED[1]]
SIZE_IDS = ["below-the-gate", "above-the-gate"]


@pytest.mark.parametrize("spec", SIZES, ids=SIZE_IDS)
def test_a_stepped_iterate_is_validated_without_a_scan(spec, monkeypatch):
    f, D, x0 = build_instance(spec)
    scans = counting_scans(monkeypatch)
    x = frozen(x0)
    f.value(x)
    assert len(scans) == 1
    for k in range(4):
        x_new = f.vertex_step(x, k, D.b, 0.25)
        # the key on both sides of the gate: derived above it, built below
        assert f._cache_x is x_new
        f.gradient_dot_point(x_new)
        f.gradient(x_new)
        f.value(x_new)
        assert f._cache_x is x_new
        x = x_new
    assert len(scans) == 1


@pytest.mark.parametrize("method", ["cgmis", "cgmil"])
@pytest.mark.parametrize("spec", SIZES, ids=SIZE_IDS)
def test_a_run_scans_only_its_start(spec, method, monkeypatch):
    scans = counting_scans(monkeypatch)
    rep, _, _ = _solve(spec, method, SolverConfig(eps=1e-9, max_iterations=300))
    assert rep.counters.it == 300
    # the start's copy is validated at the first oracle call; every
    # iterate after it is a vertex step from the cached key
    assert len(scans) == 1


def _declined_steps(x, D):
    """(label, x_from, i, b, lam): vertex steps whose result must not become
    the key; x is the cached key."""
    return [
        ("not-the-key", frozen(x), 2, D.b, 0.5),
        # a convex combination of finite entries cannot overflow, so the
        # non-finite entry at i comes from a non-finite vertex
        ("inf-at-i", x, 2, math.inf, 0.5),
        ("nan-at-i", x, 2, math.inf, 0.0),
    ]


@pytest.mark.parametrize("spec", SIZES, ids=SIZE_IDS)
def test_a_step_that_fails_the_check_is_validated_in_full(spec, monkeypatch):
    f, D, x0 = build_instance(spec)
    scans = counting_scans(monkeypatch)
    for k in range(len(_declined_steps(frozen(x0), D))):
        x = frozen(x0)
        f.value(x)
        label, x_from, i, b, lam = _declined_steps(x, D)[k]
        before, cached = len(scans), f._cache_state
        with np.errstate(all="ignore"):
            x_new = f.vertex_step(x_from, i, b, lam)
        assert f._cache_x is x and f._cache_state is cached, label
        # the next oracle call validates x_new in full, and may reject it
        try:
            f.value(x_new)
        except ValueError:
            assert label in ("inf-at-i", "nan-at-i"), label
        assert len(scans) == before + 1, label


@pytest.mark.parametrize("spec", GATED, ids=lambda s: f"series{s.series}")
def test_a_derived_state_never_reads_the_memo_of_the_state_it_came_from(spec):
    f, D, x0 = build_instance(spec)
    x = frozen(x0)
    f.value(x)
    f.gradient_dot_point(x)
    parent = f._cache_state
    memo = [key for key in ("sq",) if key in parent]
    assert memo  # <Px, x> or <r, r>, memoized at x
    for key in memo:
        parent[key] = math.nan  # a derived state that read it would return NaN
    x_new = f.vertex_step(x, 3, D.b, 0.25)
    assert f._cache_x is x_new and f._cache_state is not parent  # derived
    raw = {key: f._cache_state[key] for key in ("px", "r", "u") if key in f._cache_state}
    value, dot = f.value(x_new), f.gradient_dot_point(x_new)
    assert math.isfinite(value) and math.isfinite(dot)
    # the bits of the derived state's own entries, without any memo
    assert repr((value, dot)) == repr((f._value_impl(x_new, dict(raw)),
                                       f._gradient_dot_point_impl(x_new, dict(raw))))
