"""Test doubles, small utilities and the references (finite differences,
an objective floor, a replay of a traced run) shared across the suite."""

from __future__ import annotations

import math

import numpy as np

from condgrad.core import SimplexSet, SmoothObjective, Status, as_vector, step_point
from condgrad.problems import ProblemSpec, build_instance
from condgrad.solvers import FoundDirection, SolverConfig, solve_cgm


class CallableObjective(SmoothObjective):
    """Oracle built from plain callables; used to script exact scenarios.

    `fn(x) -> float` and `partial_fn(x, i) -> float` must be consistent;
    the gradient vector is assembled from `partial_fn`, and `gdp_fn(x)` is
    the optional <f'(x), x> fast path.
    """

    def __init__(self, n, fn, partial_fn, gdp_fn=None):
        super().__init__(n)
        self._fn = fn
        self._partial_fn = partial_fn
        self._gdp_fn = gdp_fn

    def _make_state(self, x):
        return {}

    def _value_impl(self, x, state):
        return self._fn(x)

    def _gradient_impl(self, x, state):
        return np.array([self._partial_fn(x, i) for i in range(self.n)],
                        dtype=np.float64)

    def _gradient_dot_point_impl(self, x, state):
        return None if self._gdp_fn is None else self._gdp_fn(x)


class LinearObjective(CallableObjective):
    """f(x) = <g0, x>: constant gradient, handy for hand-checkable cases."""

    def __init__(self, g0, with_fast_path=True):
        g0 = np.asarray(g0, dtype=float)
        super().__init__(
            g0.size,
            fn=lambda x: float(np.dot(g0, x)),
            partial_fn=lambda x, i: float(g0[i]),
            gdp_fn=(lambda x: float(np.dot(g0, x))) if with_fast_path else None,
        )
        self.g0 = g0


class LinearFractionalObjective(CallableObjective):
    """f(x) = (<a, x> + alpha)/(<c, x> + beta) with c > 0 and beta > 0, so
    that the denominator is positive on every scaled simplex.

    f is pseudo-linear, hence pseudo-convex, but not convex in general
    (Mangasarian 1965, "Pseudo-convex functions"): the paper's hypothesis
    class, not only the convex one. Its minimum over a simplex is at a
    vertex. `with_fast_path` adds the <f'(x), x> fast path.
    """

    def __init__(self, a, alpha, c, beta, with_fast_path=True):
        a = np.asarray(a, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if not ((c > 0.0).all() and beta > 0.0):
            raise ValueError("the denominator needs c > 0 and beta > 0")
        num = lambda x: float(np.dot(a, x)) + alpha
        den = lambda x: float(np.dot(c, x)) + beta

        def partial(x, i):
            N, D = num(x), den(x)
            return float((a[i] * D - N * c[i]) / (D * D))

        def gradient_dot_point(x):
            N, D = num(x), den(x)
            return (float(np.dot(a, x)) * D - N * float(np.dot(c, x))) / (D * D)

        super().__init__(a.size, fn=lambda x: num(x) / den(x), partial_fn=partial,
                         gdp_fn=gradient_dot_point if with_fast_path else None)
        self.a, self.alpha, self.c, self.beta = a, alpha, c, beta


class ConvexOverAffineObjective(SmoothObjective):
    """f(x) = N(x)/D(x) with N(x) = 0.5 x^T Q x + 1 for a positive definite
    Q, and D(x) = <c, x> + beta with c > 0 and beta > 0, so that D is
    positive on every scaled simplex.

    A convex function over a positive affine one is pseudo-convex, and in
    general not convex: <f'(x), x - y> >= (D(y)/D(x)) (f(x) - f(y)) for all
    x, y where D > 0. `with_fast_path` adds the <f'(x), x> fast path.
    """

    def __init__(self, Q, c, beta, with_fast_path=True):
        c = np.asarray(c, dtype=np.float64)
        if not ((c > 0.0).all() and beta > 0.0):
            raise ValueError("the denominator needs c > 0 and beta > 0")
        super().__init__(c.size)
        self.Q = np.asarray(Q, dtype=np.float64)
        self.c, self.beta = c, beta
        self.with_fast_path = with_fast_path

    def _make_state(self, x):
        qx = self.Q @ x
        return {"qx": qx, "N": 0.5 * float(np.dot(qx, x)) + 1.0,
                "D": float(np.dot(self.c, x)) + self.beta}

    def _value_impl(self, x, state):
        return state["N"] / state["D"]

    def _gradient_impl(self, x, state):
        N, D = state["N"], state["D"]
        return (state["qx"] * D - N * self.c) / (D * D)

    def _gradient_dot_point_impl(self, x, state):
        if not self.with_fast_path:
            return None
        N, D = state["N"], state["D"]
        return (float(np.dot(state["qx"], x)) * D - N * float(np.dot(self.c, x))) / (D * D)


def scalar_objective(fn, dfn):
    """One-dimensional oracle from f and f'."""
    return CallableObjective(
        1,
        fn=lambda x: float(fn(x[0])),
        partial_fn=lambda x, i: float(dfn(x[0])),
    )


def vertex(D: SimplexSet, i: int) -> np.ndarray:
    """The i-th vertex b*e_i of the simplex D."""
    v = np.zeros(D.n)
    v[i] = D.b
    return v


def random_simplex_points(rng, n, b, count):
    """`count` points uniform on the scaled simplex (Dirichlet(1,...,1) * b)."""
    return rng.dirichlet(np.ones(n), size=count) * b


def f_history(report, steps):
    """f at every iterate of a traced run, from f(x0) to the reported f."""
    return [s.f_before for s in steps] + [report.f]


def iterates(x0, steps, b, method, report):
    """Every iterate of a traced run, from x0 to the reported x, rebuilt
    with `step_point` from each record's vertex and step size; asserts that
    the replay ends at `report.x` bit for bit.

    The vertex value is b for the adaptive and fixed steps; the Armijo
    methods (cgm, cgmi) step toward x_i + (b - x_i), as the solver does.
    """
    x = np.array(x0, dtype=np.float64)
    points = [x]
    for s in steps:
        z_i = b
        if method in ("cgm", "cgmi"):
            x_i = float(x[s.vertex])
            z_i = x_i + (b - x_i)
        x = step_point(x, s.vertex, z_i, s.lam)
        points.append(x)
    assert x.tobytes() == report.x.tobytes(), f"{method} replay misses report.x"
    return points


def reference_scan(f, feasible_set, x, delta_p, cursor):
    """`condgrad.solvers.inexact_direction` as a loop over the probes: the
    reference its vector scan is compared against (cyclic order, ties and
    NaN), and a drop-in for it.

    The probes are the entries of one `f.gradient(x)`, taken before the
    loop; probe t reads vertex (cursor + t) % n. With the <f'(x), x> fast
    path the run is charged t + 1; without it <f'(x), x> comes from the
    gradient and the run is charged n. A full failed cycle returns the gap,
    the largest descent, as a float, with the cursor unchanged; it is NaN
    when some descent is.
    """
    n, b = feasible_set.n, feasible_set.b
    gx = f.gradient_dot_point(x)
    g = f.gradient(x)
    full = gx is None
    if full:
        gx = float(np.dot(g, x))
    best = -math.inf
    for t in range(n):
        i = (cursor + t) % n
        descent = gx - b * float(g[i])
        if descent >= delta_p:
            return FoundDirection(i, descent, t + 1, n if full else t + 1), (i + 1) % n
        if math.isnan(descent) or descent > best:  # a NaN gap stays NaN
            best = descent
    return best, cursor


def ray_value(ray, lam: float) -> float:
    """f on `ray` (a `condgrad.core.VertexRay`) at step lam, from its closed
    form: the reference its margin and the ladder screen are tested
    against."""
    lam1 = 1.0 - lam
    q = 0.5 * (lam1 * lam1 * ray.c0 + 2.0 * lam1 * lam * ray.c1 + lam * lam * ray.c2)
    if ray.d is None:
        return q
    return q + 1.0 / (lam1 * ray.u + lam * ray.w + ray.d)


class NonConvergenceError(RuntimeError):
    """The reference solve missed its target accuracy; carries the best
    objective value and gap reached."""

    def __init__(self, message: str, *, best_value: float, best_gap: float):
        super().__init__(message)
        self.best_value = best_value
        self.best_gap = best_gap


def fd_gradient(f: SmoothObjective, x, step: float = 1e-6) -> np.ndarray:
    """Central finite differences, (f(x + h e_i) - f(x - h e_i)) / 2h, with
    the per-coordinate step h_i = step * max(1, |x_i|)."""
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    x = as_vector(x, f.n)
    out = np.empty(f.n)
    for i in range(f.n):
        h = step * max(1.0, abs(float(x[i])))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        out[i] = (f.value(xp) - f.value(xm)) / (2.0 * h)
    return out


def reference_fstar(spec: ProblemSpec, target_gap: float = 1e-6,
                    max_iterations: int = 10_000_000) -> float:
    """Tight objective floor from a long high-accuracy classic run.

    Returns the final objective value of a run driven to the target gap from
    the barycenter. By convexity f(x) - f* <= gap(x), so the returned value
    is an upper bound on f* with error at most `target_gap`. Raises
    NonConvergenceError (carrying the best value and gap) when the target is
    out of reach within the iteration budget.

    The run uses a gentle sufficient-decrease slope (beta = 0.1): near the
    double-precision floor the default 0.5 demands decreases that round
    below one ulp of f, which can freeze the zigzag before tight gaps are
    certified.
    """
    objective, feasible, x0 = build_instance(spec)
    cfg = SolverConfig(beta=0.1, eps=target_gap, max_iterations=max_iterations)
    report = solve_cgm(objective, feasible, cfg, x0)
    if report.status is not Status.CONVERGED:
        raise NonConvergenceError(
            f"reference solve stalled at gap {report.gap} after "
            f"{report.counters.it} iterations (target {target_gap})",
            best_value=report.f, best_gap=report.gap)
    return report.f
