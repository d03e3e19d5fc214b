"""Deterministic benchmark problem generators on the scaled simplex.

Four convex families, all built from closed-form trigonometric data so two
builds of the same instance are bit-identical:

  series 1: quadratic form           0.5 <Px, x>
  series 2: series 1 plus barrier    + 1/(<c,x> + d)
  series 3: least squares            0.5 ||Px - q||^2
  series 4: series 3 plus barrier

All index formulas are 1-based and all angles are radians. Both objective
classes build on `_MatrixObjective`, which owns the barrier, the size gate
for derived states and the vertex ray's rounding margin; each adds only its
quadratic part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (NonFiniteOracleError, SimplexSet, SmoothObjective, VertexRay, _is_integer,
                   _is_real)

# Size gate for derived oracle states, in entries of the problem matrix
# (rows * n). Below it a matrix-vector product is cheap enough that the
# per-step overhead of deriving the state (a strided column read and a few
# length-rows temporaries) costs more than it saves; see CHANGES.md for the
# measured crossover.
DERIVED_STATE_MIN_ENTRIES = 20_000

# Unit roundoff of float64, and the largest error of one rounding into the
# subnormal range: a rounded result r is off by at most _U*|r| + _ETA.
_U = 2.0 ** -53
_ETA = 2.0 ** -1074


def _gamma(k: float) -> float:
    """k*u/(1 - k*u): bounds the relative error that k roundings leave in a
    product, and (times the sum of the terms' magnitudes) in any summation
    order of k terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 3.1)."""
    return k * _U / (1.0 - k * _U)


def build_phi1_matrix(n: int) -> np.ndarray:
    """Symmetric n x n matrix with sin/cos off-diagonals and a diagonal of
    one plus the absolute off-diagonal row sum, which makes it strictly
    diagonally dominant and hence positive definite."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    idx = np.arange(1, n + 1, dtype=np.float64)
    upper = np.triu(np.outer(np.sin(idx), np.cos(idx)), k=1)
    P = upper + upper.T
    P[np.diag_indices(n)] = np.abs(P).sum(axis=1) + 1.0
    return P


def build_phi2_terms(n: int):
    """Barrier data: c_i = 2 + sin(i) (so c_i in [1, 3]) and d = 5."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    c = 2.0 + np.sin(np.arange(1, n + 1, dtype=np.float64))
    return c, 5.0


def build_phi3_data(m: int, n: int, b: float = 10.0):
    """Least-squares data: an m x n matrix with log/sin entries, shifted by
    +2 on the main diagonal, and the right-hand side q = b * row sums of P,
    which makes the residual vanish at the all-b vector."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, n={n}")
    if not (_is_real(b) and b > 0):
        raise ValueError(f"mass must be a positive finite real, got {b!r}")
    i = np.arange(1, m + 1, dtype=np.float64)[:, None]
    j = np.arange(1, n + 1, dtype=np.float64)[None, :]
    r = i / j
    P = np.log1p(r) * np.sin(r) / (i + j)
    k = min(m, n)
    P[np.arange(k), np.arange(k)] += 2.0
    q = b * P.sum(axis=1)
    return P, q


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of one benchmark instance."""

    series: int
    n: int
    m: Optional[int] = None
    b: float = 10.0

    def __post_init__(self):
        if not (_is_integer(self.series) and self.series in (1, 2, 3, 4)):
            raise ValueError(f"series must be an integer in 1..4, got {self.series!r}")
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if self.series in (3, 4):
            if not (_is_integer(self.m) and self.m >= 1):
                raise ValueError(f"series {self.series} needs an integer row count m >= 1, "
                                 f"got {self.m!r}")
        elif self.m is not None:
            raise ValueError(f"series {self.series} takes no row count m")
        if not (_is_real(self.b) and self.b > 0):
            raise ValueError(f"mass must be a positive finite real, got {self.b!r}")

    @property
    def rows(self) -> int:
        """Row dimension of the problem matrix (n itself for series 1-2)."""
        return self.n if self.m is None else self.m


class _MatrixObjective(SmoothObjective):
    """A quadratic part built on the matrix P, optionally plus the barrier
    1/(<c,x> + d): the skeleton of both benchmark objectives.

    This class owns the barrier: c, d, the state u = <c,x>, its update
    across a vertex step, and its term in every oracle output. At the pole
    <c,x> + d = 0 the oracle raises NonFiniteOracleError. It also owns the
    size gate: a state follows a vertex step in O(rows) only when P has at
    least DERIVED_STATE_MIN_ENTRIES entries, and the memo of twice the
    quadratic part's value, `_sq`, which the value, <f'(x), x> and the
    vertex ray all read. A subclass supplies the quadratic part's state
    (`_quad_state`), its update across a vertex step (`_quad_step`), twice
    its value (`_quad_sq`), its gradient vector and <f'(x), x>
    (`_quad_gradient`, `_quad_dot_point`), and its form along a vertex ray
    (`_quad_ray`) with the per-instance bounds behind its margin
    (`_quad_bounds`).

    On the ray y(lam) = (1-lam)x + lam z_i e_i the objective is exactly

        0.5((1-lam)^2 c0 + 2(1-lam)lam c1 + lam^2 c2) + 1/((1-lam)u + lam c_i z_i + d),

    with c0, c1, c2 from `_quad_ray` and u = <c,x>, all read from the state at
    x in O(rows); c0 is twice the quadratic part's value at x, which the
    state memoizes. The ray's margin bounds the difference between this
    formula in floating point and `value` at the computed point
    step_point(x, i, z_i, lam); see `_vertex_ray`. The margin reads x only
    through s = max(||x||_1, |z_i|) and bounds the data's part once per
    instance, so it can be looser than a bound summed over x for each ray;
    a looser margin only lets more trials through to `value`.
    """

    def __init__(self, P: np.ndarray, barrier):
        super().__init__(P.shape[1])
        self.P = P
        self.c = self.d = None
        if barrier is not None:
            c, d = barrier
            self.c = np.asarray(c, dtype=np.float64)
            if self.c.shape != (self.n,):
                raise ValueError("barrier vector length must match the column count of P")
            self.d = float(d)
        self._ray_bounds = None  # set on the first line search

    def _make_state(self, x):
        state = self._quad_state(x)
        if self.c is not None:
            u = float(np.dot(self.c, x))
            if u + self.d == 0.0:
                raise NonFiniteOracleError("x is a pole of the barrier 1/(<c,x> + d)", point=x)
            state["u"] = u
        return state

    def _sq(self, x, state) -> float:
        """Twice the quadratic part's value, computed once per state."""
        sq = state.get("sq")
        if sq is None:
            sq = state["sq"] = self._quad_sq(x, state)
        return sq

    def _vertex_step_state(self, state, i, lam, b):
        if self.P.size < DERIVED_STATE_MIN_ENTRIES:
            return None
        new = self._quad_step(state, i, lam, b)
        if self.c is not None:
            u = (1.0 - lam) * state["u"] + lam * b * float(self.c[i])
            if u + self.d == 0.0:
                return None  # at the pole: the rebuild reports it
            new["u"] = u
        return new

    def _ray_constants(self) -> tuple:
        """The instance's part of the ray margin, computed once: the
        subclass's bounds on the quadratic part (`_quad_bounds`), the
        largest row sum of |P|, the total magnitude of the data (sum|P| +
        sum|c| + |d|, plus sum|q| for least squares), max|c|, and the
        constants of both rounding bounds for this instance's rows and n."""
        rows, n = self.P.shape
        R = np.abs(self.P).sum(axis=1)
        total = float(R.sum())
        c_max = 0.0
        if self.c is not None:
            ac = np.abs(self.c)
            c_max = float(ac.max())
            total += float(ac.sum()) + abs(self.d)
        r_max = float(R.max())
        quad, q_sum = self._quad_bounds(R, r_max)
        return (quad, r_max, total + q_sum, c_max,
                _gamma(2 * rows + 4 * n + 32), 8.0 * (rows + 2) * (n + 2) * _ETA,
                _gamma(n + 10), 8.0 * (n + 2) * _ETA)

    def _vertex_ray(self, x, state, i, z_i):
        # Computed on the first line search, not in the constructor, so
        # that building an instance costs what it did.
        if self._ray_bounds is None:
            self._ray_bounds = self._ray_constants()
        quad, r_max, total, c_max, g_quad, eta_quad, g_bar, eta_bar = self._ray_bounds
        # ||y(lam)||_1 <= (1-lam)||x||_1 + lam|z_i| <= s for every lam in
        # [0, 1], and so |y_j(lam)| <= s for every j: the ray reads x
        # through s and the state only
        s = max(float(np.abs(x).sum()), abs(z_i))
        c0, c1, c2, T = self._quad_ray(x, state, i, z_i, s, quad)
        # Rounding margin, counted over both paths to f(y(lam)): the
        # products and sums of `value` at the point step_point rounded, the
        # rounding of that point itself, the coefficients at x and the few
        # flops of the formula, then the barrier's addition and the screen's
        # own subtraction. Each quadratic path errs by at most
        # gamma_{rows + 2n + 11} T, where T (from `_quad_ray`) bounds the
        # magnitudes of the quadratic part's terms on the whole ray, and the
        # rounded point moves f by gamma_4 T; k = 2 rows + 4n + 32 (g_quad)
        # covers their sum with room for the final additions and for R and
        # T being rounded themselves. Each rounding into the subnormal range
        # errs by at most _ETA, and no intermediate moves f by more than
        # amp^2.
        amp = (1.0 + s) * (1.0 + total)
        margin = g_quad * T + eta_quad * amp * amp
        if self.c is None:
            ray = VertexRay(c0, c1, c2, margin)
        else:
            u, d = state["u"], self.d
            cz = float(self.c[i]) * z_i
            # Either path's denominator is within E of the exact one, and
            # so are u + d and c_i z_i + d of the ray's ends; the exact
            # denominator is affine in lam, so when those ends share a sign
            # and clear 2E, no denominator on the ray is smaller than low.
            # E counts gamma_{n+10} times the magnitude of <c, y> + d, where
            # |<c, y>| <= sum_k |c_k| |y_k| <= max|c| ||y||_1 <= s max|c| on the
            # whole ray (at its ends: |c|.|x| <= max|c| ||x||_1 <= s max|c|
            # and |c_i z_i| <= s max|c|).
            E = g_bar * (s * c_max + abs(d)) + eta_bar * amp
            low = min(abs(u + d), abs(cz + d)) - 2.0 * E
            if not (low > 0.0 and (u + d > 0.0) == (cz + d > 0.0)):
                return None  # the denominator may reach zero on the ray
            # the two reciprocals differ by <= 2E/low^2, and their
            # rounding, the addition and the screen add <= gamma_8/low
            margin += (2.0 * E / low + _gamma(8)) / low
            ray = VertexRay(c0, c1, c2, margin, u, cz, d)
        # no intermediate of either path can overflow
        if not math.isfinite(4.0 * (T + s * r_max) + margin + c0 + c1 + c2):
            return None
        return ray

    def _value_impl(self, x, state):
        f = 0.5 * self._sq(x, state)
        if self.c is not None:
            f += 1.0 / (state["u"] + self.d)
        return f

    def _gradient_impl(self, x, state):
        g = self._quad_gradient(state)
        if self.c is None:
            return g.copy()
        w = (state["u"] + self.d) ** 2
        return g - self.c / w

    def _gradient_dot_point_impl(self, x, state):
        out = self._quad_dot_point(x, state)
        if self.c is not None:
            w = (state["u"] + self.d) ** 2
            out -= state["u"] / w
        return out


class QuadraticFormObjective(_MatrixObjective):
    """0.5 <Px, x> for symmetric P, optionally plus 1/(<c,x> + d).

    The quadratic part's state is Px, which is also its gradient vector and
    gives <f'(x), x> for free; a vertex step updates it with one column of P.
    P must be symmetric bit for bit: for any other P the gradient of
    0.5 <Px, x> is 0.5 (P + P^T) x, not Px.
    """

    def __init__(self, P: np.ndarray, barrier=None):
        P = np.asarray(P, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"P must be square, got shape {P.shape}")
        if not (P == P.T).all():
            raise ValueError("P must be symmetric")
        super().__init__(P, barrier)

    def _quad_state(self, x):
        return {"px": self.P @ x}

    def _quad_step(self, state, i, lam, b):
        # P((1-lam)x + lam*b*e_i) = (1-lam)Px + lam*b*P[:, i]
        px = state["px"] * (1.0 - lam)
        px += (lam * b) * self.P[:, i]
        return {"px": px}

    def _quad_sq(self, x, state):
        return float(np.dot(state["px"], x))

    def _quad_gradient(self, state):
        return state["px"]

    def _quad_dot_point(self, x, state):
        return self._sq(x, state)

    def _quad_bounds(self, R, r_max):
        return r_max, 0.0

    def _quad_ray(self, x, state, i, z_i, s, r_max):
        # 0.5 <Py, y> = 0.5((1-lam)^2 <Px,x> + 2(1-lam)lam z_i (Px)_i + lam^2 z_i^2 P_ii),
        # whose cross term holds as P is symmetric.
        # Both paths err by a multiple of
        # |y|^T |P| |y| = sum_k |y_k| (|P| |y|)_k <= ||y||_1 max_k (|P| |y|)_k
        #              <= ||y||_1 max|y_j| max_k R_k <= s^2 max R,
        # with R the row sums of |P|.
        px = state["px"]
        return (self._sq(x, state), z_i * float(px[i]),
                z_i * z_i * float(self.P[i, i]), s * s * r_max)


class LeastSquaresObjective(_MatrixObjective):
    """0.5 ||Px - q||^2, optionally plus 1/(<c,x> + d).

    The quadratic part's state is the residual r = Px - q. Its gradient
    vector P^T r is materialized lazily on the first derivative request;
    <f'(x), x> = <r, r> + <r, q> needs only r. Across a vertex step r is
    updated with one column of P.
    """

    def __init__(self, P: np.ndarray, q: np.ndarray, barrier=None):
        P = np.asarray(P, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        if P.ndim != 2:
            raise ValueError(f"P must be a matrix, got shape {P.shape}")
        if q.shape != (P.shape[0],):
            raise ValueError("q length must match the row count of P")
        super().__init__(P, barrier)
        self.q = q

    def _quad_state(self, x):
        return {"r": self.P @ x - self.q}

    def _quad_step(self, state, i, lam, b):
        # r+ = (1-lam)r + lam(b*P[:, i] - q); P^T r+ stays lazy
        r = state["r"] * (1.0 - lam)
        r += (lam * b) * self.P[:, i]
        r -= lam * self.q
        return {"r": r}

    def _pt_r(self, state):
        if "t" not in state:
            state["t"] = self.P.T @ state["r"]
        return state["t"]

    def _quad_sq(self, x, state):
        r = state["r"]
        return float(np.dot(r, r))

    def _quad_gradient(self, state):
        return self._pt_r(state)

    def _quad_dot_point(self, x, state):
        return self._sq(x, state) + float(np.dot(state["r"], self.q))

    def _quad_bounds(self, R, r_max):
        aq = np.abs(self.q)
        return ((float(np.dot(R, R)), float(np.dot(R, aq)), float(np.dot(self.q, self.q))),
                float(aq.sum()))

    def _quad_ray(self, x, state, i, z_i, s, sums):
        # Py - q = (1-lam) r + lam v with v = z_i P[:, i] - q. Both paths err
        # by a multiple of sum_k w_k^2, where w_k = s R_k + |q_k| bounds
        # |r_k|, |v_k| and |(Py - q)_k| on the whole ray, as every |y_j| <= s;
        # expanded, sum_k w_k^2 = s^2 sum R_k^2 + 2 s sum R_k |q_k| + sum q_k^2.
        r2, rq, qq = sums
        r = state["r"]
        v = z_i * self.P[:, i] - self.q
        return (self._sq(x, state), float(np.dot(r, v)), float(np.dot(v, v)),
                (s * s * r2 + 2.0 * s * rq) + qq)


def make_objective(spec: ProblemSpec) -> SmoothObjective:
    """Assemble the counted oracle for a benchmark instance."""
    if spec.series in (1, 2):
        P = build_phi1_matrix(spec.n)
        barrier = build_phi2_terms(spec.n) if spec.series == 2 else None
        return QuadraticFormObjective(P, barrier=barrier)
    P, q = build_phi3_data(spec.m, spec.n, spec.b)
    barrier = build_phi2_terms(spec.n) if spec.series == 4 else None
    return LeastSquaresObjective(P, q, barrier=barrier)


def build_instance(spec: ProblemSpec):
    """(objective, feasible set, barycenter start) for one instance."""
    D = SimplexSet(spec.n, spec.b)
    return make_objective(spec), D, D.barycenter()


def lipschitz_upper_bound(spec: ProblemSpec, region: SimplexSet) -> float:
    """A valid upper bound on the gradient Lipschitz constant over the region.

    Row-sum (infinity-norm) bounds on the Hessian of the objective that
    `make_objective(spec)` builds: for the quadratic form the Hessian is P
    itself, for least squares it is P^T P; the barrier adds at most
    2||c||^2/d^3 because <c,x> >= 0 on the nonnegative orthant. Cheap,
    deterministic, and only an upper bound is ever needed: a larger constant
    just shrinks the derived fixed step.
    """
    if region.n != spec.n:
        raise ValueError(f"region dimension {region.n} does not match spec n={spec.n}")
    f = make_objective(spec)
    H = f.P if isinstance(f, QuadraticFormObjective) else f.P.T @ f.P
    L = float(np.abs(H).sum(axis=1).max())
    if f.c is not None:
        L += 2.0 * float(np.dot(f.c, f.c)) / f.d ** 3
    return L
