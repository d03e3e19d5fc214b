"""Deterministic benchmark problem generators on the scaled simplex.

Four convex families, all built from closed-form trigonometric data so two
builds of the same instance are bit-identical:

  series 1: quadratic form           0.5 <Px, x>
  series 2: series 1 plus barrier    + 1/(<c,x> + d)
  series 3: least squares            0.5 ||Px - q||^2
  series 4: series 3 plus barrier

All index formulas are 1-based and all angles are radians. Both objective
classes build on `_MatrixObjective`, which owns the barrier, the size gate
for derived states, the vertex ray's rounding margin and the Lipschitz
bound; each adds only its quadratic part. Every oracle state holds the
quadratic part's gradient vector as "g", built or derived with the state:
Px for the quadratic form, and P^T r beside the residual r = Px - q for
least squares. A state's one memo is twice the quadratic part's value.

Both matrix builders fill their result in place one block of whole rows at
a time, so set-up memory is the result plus one block of temporaries. The
public `build_phi*` builders return fresh writable arrays.

Both constructors hold P, q and c by the iterates' rule (`core._trusted`):
a read-only array that owns its data is kept as it is, any other becomes a
frozen copy, and either is checked (finite, and the quadratic form's P
symmetric) on every call, so no later write by a caller reaches the oracle.
An objective computes its ray constants at construction and its Lipschitz
bound on first request, and a copy shares both. `make_objective` builds one
checked objective per spec on frozen data, which it never hands out, and
returns a copy of it: series 1 and 3 generate their data, and series 2 and
4 add a barrier to the data of series 1 or 3 at the same size and mass.
`lipschitz_upper_bound` reads the bound of that same objective.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (NonFiniteOracleError, SimplexSet, SmoothObjective, VertexRay, _all_finite,
                   _is_integer, _is_real, _real_array, _require_int, _require_positive, _trusted)

# Size gate for derived oracle states, in entries of the problem matrix
# (rows * n). Below it a matrix-vector product is cheap enough that the
# per-step overhead of deriving the state (a read of one line of P, a
# contiguous row for the symmetric quadratic form and a strided column for
# least squares, and a few length-rows temporaries) costs more than it
# saves; see CHANGES.md for the crossover, measured with column reads.
DERIVED_STATE_MIN_ENTRIES = 20_000

# Entries of a matrix in one block of whole rows from `_row_blocks`, the
# blocks in which `build_phi1_matrix` and `build_phi3_data` fill their
# matrix and `_abs_row_sums` takes absolute values, so that their
# temporaries stay in cache. Any block between 2**13 and 2**16 entries
# builds (500, 1000) in the same time.
_BLOCK_ENTRIES = 2 ** 15

# Specs whose checked objective, with its data and constants, a process
# keeps (`_checked_objective`). A benchmark workload solves a few specs
# many times over, and each is deterministic, so a kept one is copied
# rather than rebuilt and checked again. The paper-grid workload has
# exactly 8 specs, so a smaller cache would rebuild every one of them on
# every set-up round; 8 also covers the other workloads' 6, while a
# process that walks through many specs holds at most 8.
_DATA_CACHE_SIZE = 8

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


def _owned(a, name: str) -> np.ndarray:
    """`a` as float64 data that no caller can write to: a trusted array
    (`core._trusted`) as it is, any other frozen, after a copy unless the
    conversion to float64 made a fresh array already, so that a caller's
    writable array costs one copy. Raise ValueError naming it when it
    holds NaN or +-inf, tested as `as_vector` tests a vector."""
    v = _real_array(a)
    if not _trusted(v):
        if np.may_share_memory(v, a):
            v = v.copy()
        v.setflags(write=False)
    if not _all_finite(v):
        raise ValueError(f"{name} must be finite, got NaN or infinite entries")
    return v


def _symmetric(P: np.ndarray) -> bool:
    """Whether the square P equals its transpose, entry for entry."""
    return bool((P == P.T).all())


def _row_blocks(M: np.ndarray):
    """Yield (start, M[start:start + k]) over the whole rows of the matrix
    M, k rows of about _BLOCK_ENTRIES entries at a time: views, so a
    caller may fill M through them."""
    k = max(1, _BLOCK_ENTRIES // M.shape[1])
    for start in range(0, M.shape[0], k):
        yield start, M[start:start + k]


def _abs_row_sums(M: np.ndarray) -> np.ndarray:
    """The row sums of |M|, one block of `_row_blocks` at a time, so that
    no full-size |M| is held. Each row is reduced on its own, so the
    result is bit for bit np.abs(M).sum(axis=1)."""
    out = np.empty(M.shape[0])
    for start, blk in _row_blocks(M):
        out[start:start + len(blk)] = np.abs(blk).sum(axis=1)
    return out


def build_phi1_matrix(n: int) -> np.ndarray:
    """Symmetric n x n matrix with sin/cos off-diagonals and a diagonal of
    one plus the absolute off-diagonal row sum, which makes it strictly
    diagonally dominant and hence positive definite.

    P is filled in place, one block of `_row_blocks` at a time, as
    `build_phi3_data` fills its matrix: off the diagonal P[i, j] =
    sin(min(i, j)) * cos(max(i, j)), the product that the upper triangle
    of outer(sin, cos) and its transpose give, and each diagonal entry is
    its row's sum of |P| with the diagonal at zero, plus one. So P is bit
    for bit that triu formula's, and set-up holds the result plus one block
    of temporaries rather than three full-size ones."""
    _require_int(n, "n", 1)
    idx = np.arange(1, n + 1, dtype=np.float64)
    sin, cos = np.sin(idx), np.cos(idx)
    j = np.arange(n)
    P = np.empty((n, n))
    for start, blk in _row_blocks(P):
        i = j[start:start + len(blk)]
        np.multiply(sin[np.minimum(i[:, None], j)], cos[np.maximum(i[:, None], j)], out=blk)
        diagonal = (np.arange(len(blk)), i)
        blk[diagonal] = 0.0
        blk[diagonal] = np.abs(blk).sum(axis=1) + 1.0
    return P


def build_phi2_terms(n: int):
    """Barrier data: c_i = 2 + sin(i) (so c_i in [1, 3]) and d = 5."""
    _require_int(n, "n", 1)
    c = 2.0 + np.sin(np.arange(1, n + 1, dtype=np.float64))
    return c, 5.0


def build_phi3_data(m: int, n: int, b: float = 10.0):
    """Least-squares data: an m x n matrix with log/sin entries, shifted by
    +2 on the main diagonal, and the right-hand side q = b * row sums of P,
    which makes the residual vanish at the all-b vector.

    P is filled in place, one block of `_row_blocks` at a time, so that
    set-up holds the result plus one block of temporaries rather than three
    full-size ones. Each entry takes the same float operations in the same
    order as the one-shot formula log1p(i/j) * sin(i/j) / (i + j), so P and
    q are bit for bit what it gives."""
    _require_int(m, "m", 1)
    _require_int(n, "n", 1)
    _require_positive(b, "b")
    P = np.empty((m, n))
    j = np.arange(1, n + 1, dtype=np.float64)
    for start, blk in _row_blocks(P):
        ib = np.arange(start + 1, start + len(blk) + 1, dtype=np.float64)[:, None]
        r = ib / j
        np.log1p(r, out=blk)
        blk *= np.sin(r)
        blk /= ib + j
    k = min(m, n)
    P[np.arange(k), np.arange(k)] += 2.0
    q = b * P.sum(axis=1)
    return P, q


def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze `a` and return it."""
    a.setflags(write=False)
    return a


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
        _require_int(self.n, "n", 1)
        if self.series in (3, 4):
            _require_int(self.m, f"series {self.series}'s row count m", 1)
        elif self.m is not None:
            raise ValueError(f"series {self.series} takes no row count m")
        _require_positive(self.b, "b")

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
    quadratic part's value, `_sq`, which the value and the vertex ray both
    read. A subclass supplies the quadratic part's state (`_quad_state`),
    which holds its gradient vector as "g", the update of that state across
    a vertex step (`_quad_step`), twice its value (`_quad_sq`), its form
    along a vertex ray (`_quad_ray`) with the per-instance bounds behind
    its margin (`_quad_bounds`), and its Hessian (`_hessian`).

    The instance's constants live on it: the ray's (`_ray_bounds`),
    computed at construction, and the Lipschitz bound
    (`_lipschitz_bound`), computed on first request. A shallow copy shares
    the ray's, and the bound once computed; no solve computes either.

    Both objectives declare `cheap_gradient_dot_point`: <f'(x), x> follows
    from the state in O(rows), so a run charges each probe of the inexact
    direction search one kg.

    On the ray y(lam) = (1-lam)x + lam b e_i the quadratic part is exactly

        0.5((1-lam)^2 c0 + 2(1-lam)lam c1 + lam^2 c2),

    with c0, c1, c2 from `_quad_ray`, read from the state at x in O(rows);
    c0 is twice the quadratic part's value at x, which the state memoizes.
    The barrier 1/((1-lam)u + lam c_i b + d), with u = <c,x>, is convex in
    lam while its denominator stays positive, so its tangent at x, A + B lam
    with A = 1/(u + d) and B = (u - c_i b) A^2, lies below it; the vertex ray
    is the quadratic part plus that tangent, one quadratic in the same form.
    A ray whose denominator may vanish or is negative is not offered. The
    ray's margin bounds how far this formula in floating point may exceed
    `value` at the computed point step_point(x, i, b, lam) (and, without the
    barrier, how far it may fall below it); see `_vertex_ray`. The margin
    reads x only through s = max(sqrt(n <x, x>) rounded up, |b|) >=
    max(||x||_1, |b|) and bounds the data's part once per instance, so it
    can be looser than a bound summed over x for each ray; a looser margin
    only lets more trials through to `value`.
    """

    cheap_gradient_dot_point = True

    def __init__(self, P: np.ndarray, barrier):
        super().__init__(P.shape[1])
        self.P = P
        self.c = self.d = None
        if barrier is not None:
            c, d = barrier
            self.c = _owned(c, "barrier vector c")
            if self.c.shape != (self.n,):
                raise ValueError("barrier vector length must match the column count of P")
            if not _is_real(d):
                raise ValueError(f"barrier offset d must be a finite real, got {d!r}")
            self.d = float(d)
        # huge finite data overflow these bounds to inf, and the vertex ray
        # then declines at its finiteness test
        with np.errstate(over="ignore"):
            self._ray_bounds = self._ray_constants()

    def _make_state(self, x):
        state = self._quad_state(x)
        if self.c is not None:
            u = float(self.c.dot(x))
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
        """The instance's part of the ray margin, computed at
        construction: the subclass's bounds on the quadratic part
        (`_quad_bounds`), the largest row sum of |P|, the total magnitude
        of the data (sum|P| + sum|c| + |d|, plus sum|q| for least squares),
        max|c|, the constants of both rounding bounds for this instance's
        rows and n, and those of `_norm1_bound` for this n."""
        rows, n = self.P.shape
        R = _abs_row_sums(self.P)
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
                _gamma(n + 10), 8.0 * (n + 2) * _ETA, n * _ETA, 1.0 + _gamma(n + 4))

    def _norm1_bound(self, x, eta_n: float, scale: float) -> float:
        """An upper bound on ||x||_1 from one dot product: ||x||_1 <=
        sqrt(n <x, x>) by Cauchy-Schwarz. The computed <x, x> is at least
        (1 - gamma_n)<x, x> - n*_ETA (every term is a square, and each may
        underflow), so adding eta_n = n*_ETA and scaling by scale = 1 +
        gamma_{n+4} (the last two `_ray_constants`) covers that and the
        roundings of the addition, the product by n, the sqrt, the scale and
        the scaling."""
        return math.sqrt(self.n * (float(x.dot(x)) + eta_n)) * scale

    @functools.cached_property
    def _lipschitz_bound(self) -> float:
        """A row-sum (infinity-norm) bound on the Hessian of the quadratic
        part (`_hessian`), plus 2||c||^2/d^3 for the barrier, which bounds
        its Hessian 2cc^T/(<c,x> + d)^3 where <c,x> >= 0, as on the
        nonnegative orthant for c >= 0. Computed on first request, not at
        construction: for least squares it forms P^T P."""
        L = float(_abs_row_sums(self._hessian()).max())
        if self.c is not None:
            L += 2.0 * float(np.dot(self.c, self.c)) / self.d ** 3
        return L

    def _vertex_ray(self, x, state, i, b):
        (quad, r_max, total, c_max, g_quad, eta_quad, g_bar, eta_bar,
         eta_n, scale) = self._ray_bounds
        # ||y(lam)||_1 <= (1-lam)||x||_1 + lam|b| <= s for every lam in
        # [0, 1], and so |y_j(lam)| <= s for every j: the ray reads x
        # through s and the state only. s costs one dot product and may
        # exceed max(||x||_1, |b|) by up to a factor of sqrt(n), so T, and
        # with it the margin, may grow by up to a factor of n; that only
        # lets more trials through to `value`.
        s = max(self._norm1_bound(x, eta_n, scale), abs(b))
        c0, c1, c2, T = self._quad_ray(x, state, i, b, s, quad)
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
        if self.c is not None:
            u, d = state["u"], self.d
            cb = float(self.c[i]) * b
            # Either path's denominator is within E of the exact one, D(lam)
            # = (1-lam)U + lam W + d with U = <c, x> and W = c_i b, and so
            # are u + d and c_i b + d of D(0) and D(1); D is affine in lam,
            # so when both ends clear 2E, D >= low + E on the whole ray and
            # the denominator that `value` divides by is at least low.
            # E counts gamma_{n+10} times the magnitude of <c, y> + d, where
            # |<c, y>| <= sum_k |c_k| |y_k| <= max|c| ||y||_1 <= K = s max|c|
            # on the whole ray (at its ends: |U| <= max|c| ||x||_1 <= K and
            # |W| <= K).
            K = s * c_max
            E = g_bar * (K + abs(d)) + eta_bar * amp
            low = min(u + d, cb + d) - 2.0 * E
            if not low > 0.0:
                # the denominator may reach zero on the ray, or be negative
                # on it all, where 1/D is concave and its tangent above it
                return None
            # 1/D is convex where D > 0, so it lies above its tangent at x:
            # 1/D(lam) = A* + B* lam + lam^2 (W - U)^2/(D(0)^2 D(lam)) with
            # A* = 1/D(0) and B* = (U - W)/D(0)^2. The ray is the quadratic
            # part plus A + B lam, the tangent from the state, which in the
            # Bernstein form adds 2A, 2A + B and 2(A + B) to c0, c1 and c2.
            A = 1.0 / (u + d)
            B = (u - cb) * (A * A)
            c0, c1, c2 = c0 + 2.0 * A, c1 + (2.0 * A + B), c2 + 2.0 * (A + B)
            # T now bounds the tangent's coefficients too: |2A|, |2A + B| and
            # |2(A + B)| are at most 2(A + |B|)
            T += 2.0 * (A + abs(B))
            # The tangent's margin, with gamma = gamma_{n+10} (g_bar), t =
            # E/low and _U the unit roundoff (A <= (1+_U)/low, A* <= 1/low):
            # - the reciprocal in `value` and its addition to f err by at
            #   most E/low^2 + 2_U(1+_U)/low, and |A - A*| <= E/low^2 +
            #   _U(1+_U)/low: together <= 2(t + gamma)/low;
            # - |U - W| <= 2K(1+2_U), u - c_i b is within E of it and A^2
            #   within ((2+_U)t + _U(1+_U)(3+2_U))/low^2 of A*^2, so that
            #   |B - B*| <= (E + 2K((2+5_U)t + 4_U))/low^2 up to terms in
            #   _U^2, which (2E + 2K(2t + 3gamma))/low^2 bounds;
            # - folding the coefficients, the rounded products of lam and
            #   the formula's flops err by about 9_U(A + |B|) + _U T/2, and
            #   the screen's subtraction by _U(A + |B|): gamma T bounds them.
            # E holds more than the denominators need (gamma_{n+10} where
            # about gamma_{n+5} would do), and gamma more than 11_U, so each
            # bound also covers its own rounding.
            t = E / low
            margin += ((2.0 * (t + g_bar) + (2.0 * E + 2.0 * K * (2.0 * t + 3.0 * g_bar)) / low)
                       / low + g_bar * T)
        # no intermediate of either path can overflow
        if not math.isfinite(4.0 * (T + s * r_max) + margin + c0 + c1 + c2):
            return None
        return VertexRay(c0, c1, c2, margin)

    def _value_impl(self, x, state):
        f = 0.5 * self._sq(x, state)
        if self.c is not None:
            f += 1.0 / (state["u"] + self.d)
        return f

    def _gradient_impl(self, x, state):
        g = state["g"]
        if self.c is None:
            return g.copy()
        w = (state["u"] + self.d) ** 2
        return g - self.c / w


class QuadraticFormObjective(_MatrixObjective):
    """0.5 <Px, x> for symmetric P, optionally plus 1/(<c,x> + d).

    The quadratic part's state is its gradient vector g = Px; a vertex step
    updates it with one row of P (equal to the column).
    P must be symmetric bit for bit: for any other P the gradient of
    0.5 <Px, x> is 0.5 (P + P^T) x, not Px.

    P and c are held by the module's rule: a trusted array as it is, any
    other as a frozen copy, checked here, so a caller's later write to
    its own array changes no output.
    """

    def __init__(self, P: np.ndarray, barrier=None):
        P = _owned(P, "P")  # a NaN would fail the symmetry test below
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"P must be square, got shape {P.shape}")
        if not _symmetric(P):
            raise ValueError("P must be symmetric")
        super().__init__(P, barrier)

    def _quad_state(self, x):
        return {"g": self.P @ x}

    def _quad_step(self, state, i, lam, b):
        # P((1-lam)x + lam*b*e_i) = (1-lam)Px + lam*b*P[:, i], and P[:, i]
        # is the contiguous row P[i], as P is symmetric bit for bit
        g = state["g"] * (1.0 - lam)
        g += (lam * b) * self.P[i]
        return {"g": g}

    def _quad_sq(self, x, state):
        return float(state["g"].dot(x))

    def _quad_bounds(self, R, r_max):
        return r_max, 0.0

    def _hessian(self):
        return self.P

    def _quad_ray(self, x, state, i, b, s, r_max):
        # 0.5 <Py, y> = 0.5((1-lam)^2 <Px,x> + 2(1-lam)lam b (Px)_i + lam^2 b^2 P_ii),
        # whose cross term holds as P is symmetric.
        # Both paths err by a multiple of
        # |y|^T |P| |y| = sum_k |y_k| (|P| |y|)_k <= ||y||_1 max_k (|P| |y|)_k
        #              <= ||y||_1 max|y_j| max_k R_k <= s^2 max R,
        # with R the row sums of |P|.
        return (self._sq(x, state), b * float(state["g"][i]),
                b * b * float(self.P[i, i]), s * s * r_max)


class LeastSquaresObjective(_MatrixObjective):
    """0.5 ||Px - q||^2, optionally plus 1/(<c,x> + d).

    The quadratic part's state is the residual r = Px - q and its gradient
    vector g = P^T r. Across a vertex step r is updated with one column of
    P, and g is the product P^T r of the updated r.

    P, q and c are held by the module's rule: a trusted array as it is, any
    other as a frozen copy, checked here, so a caller's later write to
    its own array changes no output. P has at least one row.
    """

    def __init__(self, P: np.ndarray, q: np.ndarray, barrier=None):
        P, self.q = _owned(P, "P"), _owned(q, "q")
        if P.ndim != 2 or P.shape[0] == 0:
            raise ValueError(f"P must be a matrix with at least one row, got shape {P.shape}")
        if self.q.shape != (P.shape[0],):
            raise ValueError("q length must match the row count of P")
        super().__init__(P, barrier)

    def _quad_state(self, x):
        r = self.P @ x - self.q
        return {"r": r, "g": self.P.T @ r}

    def _quad_step(self, state, i, lam, b):
        # r+ = (1-lam)r + lam(b*P[:, i] - q), and g+ = P^T r+ in full
        r = state["r"] * (1.0 - lam)
        r += (lam * b) * self.P[:, i]
        r -= lam * self.q
        return {"r": r, "g": self.P.T @ r}

    def _quad_sq(self, x, state):
        r = state["r"]
        return float(r.dot(r))

    def _quad_bounds(self, R, r_max):
        aq = np.abs(self.q)
        return ((float(np.dot(R, R)), float(np.dot(R, aq)), float(np.dot(self.q, self.q))),
                float(aq.sum()))

    def _hessian(self):
        return self.P.T @ self.P

    def _quad_ray(self, x, state, i, b, s, sums):
        # Py - q = (1-lam) r + lam v with v = b P[:, i] - q. Both paths err
        # by a multiple of sum_k w_k^2, where w_k = s R_k + |q_k| bounds
        # |r_k|, |v_k| and |(Py - q)_k| on the whole ray, as every |y_j| <= s;
        # expanded, sum_k w_k^2 = s^2 sum R_k^2 + 2 s sum R_k |q_k| + sum q_k^2.
        r2, rq, qq = sums
        r = state["r"]
        v = b * self.P[:, i] - self.q
        return (self._sq(x, state), float(r.dot(v)), float(v.dot(v)),
                (s * s * r2 + 2.0 * s * rq) + qq)


@functools.lru_cache(maxsize=_DATA_CACHE_SIZE)
def _checked_objective(spec: ProblemSpec) -> _MatrixObjective:
    """The instance's objective, built once and never used, so every copy
    of it starts with no calls counted and no key. Its data are frozen
    before construction, so none is copied: series 1 and 3 generate
    theirs, and series 2 and 4 take P (and q) from series 1 or 3 at the
    same size and mass and add the barrier."""
    if spec.series == 1:
        return QuadraticFormObjective(_read_only(build_phi1_matrix(spec.n)))
    if spec.series == 3:
        P, q = build_phi3_data(spec.m, spec.n, spec.b)
        return LeastSquaresObjective(_read_only(P), _read_only(q))
    c, d = build_phi2_terms(spec.n)
    barrier = (_read_only(c), d)
    quad = _checked_objective(replace(spec, series=spec.series - 1))
    if spec.series == 2:
        return QuadraticFormObjective(quad.P, barrier)
    return LeastSquaresObjective(quad.P, quad.q, barrier)


def _copy(f):
    """A shallow copy of `f`, set attribute by attribute: `copy.copy`
    writes through `__dict__`, which leaves CPython 3.11 reading the
    copy's attributes on a slower path (see CHANGES.md)."""
    new = object.__new__(type(f))
    for name, value in vars(f).items():
        setattr(new, name, value)
    return new


def make_objective(spec: ProblemSpec) -> SmoothObjective:
    """Assemble the counted oracle for a benchmark instance: a fresh copy of
    one objective per spec, checked once per process, which shares its
    read-only data and constants (see the module docstring)."""
    return _copy(_checked_objective(spec))


def build_instance(spec: ProblemSpec):
    """(objective, feasible set, barycenter start) for one instance."""
    D = SimplexSet(spec.n, spec.b)
    return make_objective(spec), D, D.barycenter()


def lipschitz_upper_bound(spec: ProblemSpec, region: SimplexSet) -> float:
    """A valid upper bound on the gradient Lipschitz constant over the region.

    Row-sum (infinity-norm) bounds on the Hessian of the objective that
    `make_objective(spec)` returns, memoized on the spec's checked
    objective: for the quadratic form the Hessian is P itself, for least
    squares it is P^T P; the barrier adds at most 2||c||^2/d^3 because
    <c,x> >= 0 on the nonnegative orthant. Deterministic, computed once
    per spec, and only an upper bound is ever needed: a larger constant
    just shrinks the derived fixed step.
    """
    if region.n != spec.n:
        raise ValueError(f"region dimension {region.n} does not match spec n={spec.n}")
    return _checked_objective(spec)._lipschitz_bound
