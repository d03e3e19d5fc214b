"""Shared primitives: the scaled simplex, counted first-order oracles, the
exact vertex oracle, and Armijo backtracking."""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

# Feasibility tolerances: slack on the mass constraint, relative to the mass
# b (1e-9 at b = 10), and the allowed dip below zero on coordinates.
# Convex-combination steps preserve both analytically; these absorb rounding
# only, which scales with b and not with n (each entry rounds on its own).
MASS_RTOL = 1e-10
COORD_FLOOR = -1e-12

# Bounds on the backtracking exponent m, the rungs of `_ladder`. Every
# ladder runs to rung MAX_BACKTRACKS. For a theta close to 1 it runs on to
# the first m at which 1 - theta^m rounds to 1, where a trial differs from x
# at the vertex index i alone, but never past MAX_RUNGS rungs (theta above
# about 0.991), so that the ladder's cost stays bounded for any theta.
MAX_BACKTRACKS = 60
MAX_RUNGS = 4096


class LineSearchError(RuntimeError):
    """Armijo backtracking exhausted its exponent budget.

    Carries the point, the index of the vertex it searched toward and the
    directional derivative that produced the failure, so the caller can
    diagnose the run.
    """

    def __init__(self, message: str, *, point=None, vertex=None,
                 directional_derivative=None, trials=None):
        super().__init__(message)
        self.point = point
        self.vertex = vertex
        self.directional_derivative = directional_derivative
        self.trials = trials


class NonFiniteOracleError(RuntimeError):
    """A run would report a non-finite objective value or gap; carries the
    final iterate as `point` so the caller can diagnose the run, and, when
    an Armijo search raised it, the number of trials it made as `trials`."""

    def __init__(self, message: str, *, point=None, trials=None):
        super().__init__(message)
        self.point = point
        self.trials = trials


class DescentViolationError(RuntimeError):
    """A fixed step broke the sufficient-decrease inequality it was derived
    to satisfy (the Lipschitz bound behind it is too small); carries the
    point, the step and f before and after the step."""

    def __init__(self, message: str, *, point=None, step=None,
                 f_before=None, f_after=None):
        super().__init__(message)
        self.point = point
        self.step = step
        self.f_before = f_before
        self.f_after = f_after


class Status(str, Enum):
    """Terminal state of a solve."""

    CONVERGED = "Converged"
    ITERATION_CAP = "IterationCapReached"
    ERROR = "Error"


_FLOAT64 = np.dtype(np.float64)


def _real_array(x) -> np.ndarray:
    """`x` as a float64 array, refusing any dtype but integer or floating, as `_is_real` does."""
    v = np.asarray(x)
    if v.dtype.kind not in "iuf":
        raise ValueError(f"expected real numbers, got dtype {v.dtype}")
    return v if v.dtype == _FLOAT64 else v.astype(np.float64)  # a float64 array as it is


def as_vector(x, n: Optional[int] = None) -> np.ndarray:
    """Validate `x` as a finite 1-d float64 vector, optionally of length `n`,
    with the dtype rule of `_real_array`."""
    v = _real_array(x)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got array of shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"dimension mismatch: expected length {n}, got {v.shape[0]}")
    if not _all_finite(v):
        raise ValueError("vector contains non-finite entries")
    return v


def _all_finite(v: np.ndarray) -> bool:
    """Every entry of `v` (of any shape) finite, from one dot product: a
    finite sum of squares proves it; one that overflows (some |v_i| above
    about 1.3e154) does not prove the converse, so only then is every entry
    checked. np.vdot, unlike v.dot, raises no floating-point warning when a
    square overflows."""
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _is_integer(v) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A Python int or float (np.float64 included) or a numpy integer, finite
    as a float, and not a bool. Narrower floats are refused: a float32 mass
    would keep a step's arithmetic in float32."""
    if not (_is_integer(v) or isinstance(v, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class SimplexSet:
    """The scaled standard simplex {x in R^n : x >= 0, sum(x) = b}.

    Every linear function attains its minimum over this set at one of the
    n vertices b*e_i, which is what makes the vertex oracle exact and cheap.
    """

    n: int
    b: float = 10.0

    def __post_init__(self):
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")
        if not (_is_real(self.b) and self.b > 0):
            raise ValueError(f"mass must be a positive finite real, got {self.b!r}")

    @property
    def diameter_squared(self) -> float:
        """Exact square of the diameter, 2*b**2 (avoids sqrt round-off)."""
        return 2.0 * self.b * self.b

    def contains(self, x) -> bool:
        """Membership up to the feasibility tolerances; False for whatever
        `as_vector` refuses as a vector of length n."""
        try:
            v = as_vector(x, self.n)
        except ValueError:
            return False
        return (abs(float(v.sum()) - self.b) <= MASS_RTOL * self.b
                and float(v.min()) >= COORD_FLOOR)

    def barycenter(self) -> np.ndarray:
        """The uniform point (b/n, ..., b/n)."""
        return np.full(self.n, self.b / self.n)


def _trusted(x: np.ndarray) -> bool:
    """Read-only and owning its data: its values cannot change under a key."""
    return not x.flags.writeable and x.base is None


class SmoothObjective(ABC):
    """Counted first-order oracle for a smooth function on R^n.

    A subclass implements three hooks: `_make_state` (the per-point state),
    `_value_impl` and `_gradient_impl` (the gradient vector, read from that
    state).

    Call accounting is exact and unconditional: `value` adds 1 to `kf` and
    `gradient` adds n to `kg`; nothing else is charged to this object.
    These tallies count what this object evaluated; a run charges the
    paper's costs in its own counters. The class attribute
    `cheap_gradient_dot_point` declares a charge rule, not a computation: a
    subclass sets it to True when <f'(x), x> costs no more than f(x) does,
    and a run then charges its inexact direction search one kg per vertex
    probed instead of n per search. The cache only avoids recomputing work;
    it never changes the accounting.

    The cache holds one point, the key, and only a point this object
    validated in full or built itself enters it. A trusted array, one that
    is read-only and owns its data (`not x.flags.writeable and x.base is
    None`), becomes the key when an oracle call validates it: later calls
    with that same object skip validation, so a probe costs O(1) Python
    work. Solver iterates are such arrays: the solvers freeze a copy of x0,
    and `step_point` returns one. Any other array (writeable, or a view) is
    validated and evaluated from a fresh state on every call, and neither
    reads nor replaces the cached entry, so callers may mutate their own
    arrays in place. Making a trusted array writeable again, or writing to
    it through a view taken before it was frozen, breaks this contract.
    The objectives of `condgrad.problems` hold their data by the same rule:
    a trusted array as it is and any other as a frozen copy, checked
    (finite, and the quadratic form's P symmetric) on every construction.

    `vertex_step(x, i, b, lam)` (uncharged) builds the step x_new =
    (1-lam)*x + lam*b*e_i with `step_point`, a fresh read-only array. When x
    is the key, x_new needs no scan: off index i it is (1-lam)*x, finite as
    x is, so only x_new[i] is checked, and x_new becomes the key.
    The step is rank-one, so an objective whose state is linear in x can
    follow it in O(rows) instead of rebuilding it: the `_vertex_step_state`
    hook derives the state at x_new. After n consecutive derived states the
    next state is rebuilt by `_make_state` (the refresh), which bounds the
    rounding drift. An objective may decline to derive, for instance below
    a size at which the update costs more than the rebuild (the size gate of
    `condgrad.problems`); x_new then becomes the key with a state built by
    `_make_state`. A derived state is exact in exact arithmetic, but values
    at it may differ from a fresh build in the last bits.

    Every Armijo trial lies on a vertex ray y(lam) = step_point(x, i, b,
    lam), and an objective with a quadratic in lam that bounds it from below
    along the ray (f itself when f is quadratic there) can offer that
    quadratic through the `_vertex_ray` hook: `vertex_ray` (uncharged)
    returns it as a `VertexRay` with a bound on its rounding, so that the
    line search can reject a trial that is certainly above its threshold
    without evaluating it. Such a trial is still charged one kf in the
    run's counters, but not to this object's `kf`, which counts `value`
    evaluations only.

    A hook must not change what `state` holds, but it may add memo entries
    that depend only on the state (and so on the point it belongs to), as
    the benchmark objectives memoize <Px, x> or <r, r> for their value and
    the vertex ray to share.

    `armijo_step` builds each trial it evaluates from the key as
    `vertex_step` builds a step, with the O(1) check at i, but always with
    a state built by `_make_state`: the trial becomes the key, `value`
    reads it without a scan (and charges its kf), and the vertex ray at the
    accepted trial reads the state that `value` there read.
    """

    cheap_gradient_dot_point = False

    def __init__(self, n: int):
        if not (_is_integer(n) and n >= 1):
            raise ValueError(f"dimension must be a positive integer, got {n!r}")
        self.n = int(n)
        self.kf = 0
        self.kg = 0
        self._cache_x: Optional[np.ndarray] = None
        self._cache_state: Optional[dict] = None
        self._derived = 0  # consecutive derived states since the last build

    # hooks -----------------------------------------------------------------

    @abstractmethod
    def _make_state(self, x: np.ndarray) -> dict:
        """Per-point intermediate quantities shared by value and gradient."""

    @abstractmethod
    def _value_impl(self, x: np.ndarray, state: dict) -> float:
        ...

    @abstractmethod
    def _gradient_impl(self, x: np.ndarray, state: dict) -> np.ndarray:
        """f'(x) as a new float64 vector, which callers may keep or modify.
        `state` may gain memo entries only (see the class docstring)."""

    def _vertex_step_state(self, state: dict, i: int, lam: float,
                           b: float) -> Optional[dict]:
        """The state at (1-lam)*x + lam*b*e_i, derived from `state`, the
        state at x; None to have it rebuilt by `_make_state` instead.
        `state` may gain memo entries only, and the new state must not
        carry over the memo entries of `state`, which belong to x."""
        return None

    def _vertex_ray(self, x: np.ndarray, state: dict, i: int,
                    b: float) -> Optional["VertexRay"]:
        """A lower bound on f along step_point(x, i, b, lam) for lam in
        [0, 1] in the quadratic form of `VertexRay`, from `state`, the state
        at x built by `_make_state`; None to have every trial on the ray
        evaluated. `state` may gain memo entries only."""
        return None

    # counted public interface ----------------------------------------------

    def _at(self, x):
        """x validated, and the state at x: the key's own, or a new one,
        which replaces the cached entry when x is trusted."""
        if x is self._cache_x:  # validated when it became the key
            return x, self._cache_state
        x = as_vector(x, self.n)
        state = self._make_state(x)
        if _trusted(x):
            self._cache_x, self._cache_state, self._derived = x, state, 0
        return x, state

    def _step(self, x: np.ndarray, i: int, b: float, lam: float, derive: bool) -> np.ndarray:
        """step_point(x, i, b, lam), made the key when x is the key and its
        entry i is finite, with a state that `_vertex_step_state` derives
        when `derive` is true and the hook derives one, and that
        `_make_state` builds otherwise. `vertex_step` derives; `armijo_step`
        does not, as the vertex ray reads only a built state."""
        x_new = step_point(x, i, b, lam)
        if x is self._cache_x and math.isfinite(x_new[i]):
            state = None
            if derive and self._derived < self.n:
                state = self._vertex_step_state(self._cache_state, i, lam, b)
            if state is None:
                self._cache_state, self._derived = self._make_state(x_new), 0
            else:
                self._cache_state = state
                self._derived += 1
            self._cache_x = x_new
        return x_new

    def vertex_step(self, x: np.ndarray, i: int, b: float, lam: float) -> np.ndarray:
        """Uncharged: the step x_new = step_point(x, i, b, lam) from x toward
        b*e_i, which becomes the key when x is the key and x_new[i] is
        finite (see the class docstring).

        Its state is derived when fewer than n states in a row were derived
        and the `_vertex_step_state` hook derives one, and otherwise built by
        `_make_state`, which the next oracle call at x_new would have done.
        Any other x leaves the cache as it is, and the next oracle call at
        x_new validates it in full. Raises ValueError, as `step_point` does,
        unless i is an integer index of x and 0 <= lam <= 1; the cache is
        then left as it is.
        """
        return self._step(x, i, b, lam, True)

    def vertex_ray(self, x: np.ndarray, i: int, b: float) -> Optional["VertexRay"]:
        """Uncharged: f along the ray from x toward b*e_i, or None.

        Only the cached key with a state built by `_make_state` (not a
        derived one) is offered to the `_vertex_ray` hook, so the ray reads
        the same state that `value` at x reads. Raises ValueError, at any
        x, unless i is an integer in [0, n), as `step_point` does.
        """
        if not (_is_integer(i) and 0 <= i < self.n):
            raise ValueError(f"vertex index must be an integer in [0, {self.n}), got {i!r}")
        if x is not self._cache_x or self._derived:
            return None
        return self._vertex_ray(x, self._cache_state, i, b)

    def value(self, x) -> float:
        """f(x); one kf charge."""
        x, state = self._at(x)
        self.kf += 1
        return float(self._value_impl(x, state))

    def gradient(self, x) -> np.ndarray:
        """f'(x); n kg charges."""
        x, state = self._at(x)
        self.kg += self.n
        return self._gradient_impl(x, state)


@dataclass
class Counters:
    """Per-run oracle cost: iterations, value calls, scalar derivative calls,
    stage transitions. All fields only ever increase during a run."""

    it: int = 0
    kf: int = 0
    kg: int = 0
    restarts: int = 0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run, which ended in stage `counters.restarts +
    1`; its steps and stages are in its trace (`condgrad.solvers.StepRecord`)."""

    x: np.ndarray
    f: float
    gap: float
    counters: Counters
    status: Status


def exact_lmo(gradient, feasible_set: SimplexSet) -> int:
    """Minimize <gradient, y> over the simplex exactly.

    Returns the index i of the minimizing vertex b*e_i: the smallest index
    attaining min_j gradient_j, so ties break toward the lowest index for
    reproducible runs.
    """
    return int(as_vector(gradient, feasible_set.n).argmin())


def step_point(x: np.ndarray, i: int, b: float, lam: float) -> np.ndarray:
    """(1-lam)*x + lam*b*e_i, as a fresh read-only array (an oracle then
    trusts it by identity): (1-lam)*x off index i, and (1-lam)*x[i] + lam*b
    at i. The convex-combination form keeps iterates on the mass constraint
    to machine precision; x + lam*(b*e_i - x) would drift. Raises
    ValueError unless i is an integer in [0, len(x)) (a bool index would
    step every entry, a negative one the vertex counted from the end) and
    0 <= lam <= 1 (any other step leaves the segment from x to b*e_i).
    """
    if not (_is_integer(i) and 0 <= i < len(x) and 0.0 <= lam <= 1.0):
        raise ValueError(f"a vertex step needs an integer 0 <= i < {len(x)} and "
                         f"0 <= lam <= 1, got i = {i!r}, lam = {lam!r}")
    lam1 = 1.0 - lam
    out = lam1 * x
    out[i] = lam1 * float(x[i]) + lam * b
    out.setflags(write=False)
    return out


class VertexRay(NamedTuple):
    """A quadratic under f along y(lam) = step_point(x, i, b, lam) for lam
    in [0, 1], from `SmoothObjective.vertex_ray`, in the Bernstein form

        0.5((1-lam)^2 c0 + 2(1-lam)lam c1 + lam^2 c2):

    that expression minus `margin`, computed in floating point, never
    exceeds what `SmoothObjective.value` returns at y(lam)."""

    c0: float
    c1: float
    c2: float
    margin: float

    def first_open(self, ladder: tuple, m: int, f_x: float,
                   directional_derivative: float) -> int:
        """The first rung k >= m of `ladder` (see `_ladder`) whose trial is
        not certainly rejected, or len(ladder): the trial at step lam is
        certainly rejected when

            0.5((1-lam)^2 c0 + 2(1-lam)lam c1 + lam^2 c2) - margin
                > f_x + beta*lam*directional_derivative,

        evaluated left to right. Each rung is tested with the bits, and so
        the decision (NaN included), of that expression, from the products
        of lam that the rung holds."""
        c0, c1, c2, margin = self
        dd = directional_derivative
        rungs = ladder[m:] if m else ladder  # most searches start at rung 0
        for _, blam, a0, a1, a2 in rungs:
            if not 0.5 * (a0 * c0 + a1 * c1 + a2 * c2) - margin > f_x + blam * dd:
                return m
            m += 1
        return m


@functools.lru_cache(maxsize=16)
def _ladder(theta: float, beta: float) -> tuple:
    """The steps of `armijo_step` for one (theta, beta): rung m is
    (lam, beta*lam, (1-lam)^2, 2(1-lam)lam, lam^2) for lam = theta^m, each
    product rounded left to right as written (1-lam first, then 2(1-lam)).
    The rungs run from m = 0 to the first m >= MAX_BACKTRACKS at which
    1 - lam rounds to 1, or to MAX_RUNGS - 1."""
    rungs = []
    for m in range(MAX_RUNGS):
        lam = theta ** m
        lam1 = 1.0 - lam
        rungs.append((lam, beta * lam, lam1 * lam1, 2.0 * lam1 * lam, lam * lam))
        if m >= MAX_BACKTRACKS and lam1 == 1.0:
            break
    return tuple(rungs)


class ArmijoResult(NamedTuple):
    step: float
    trials: int
    new_value: float
    new_point: np.ndarray


def armijo_step(f: SmoothObjective, x, i: int, b: float,
                directional_derivative: float, beta: float, theta: float,
                f_x: float) -> ArmijoResult:
    """Backtracking line search from x toward b*e_i.

    Finds the smallest m >= 0 with

        f(step_point(x, i, b, theta^m)) <= f_x + beta theta^m <f'(x), b e_i - x>

    and returns the accepted step theta^m, the number of trials (each
    charged one kf by the caller), the accepted objective value, and the
    accepted point. `f_x` is the caller's cached value of f at x; this
    routine never re-evaluates it.

    The steps come from a ladder cached per (theta, beta) (`_ladder`): rung
    m holds theta^m, beta*theta^m and the products of theta^m that the ray
    needs, each rounded as the search would round it, so no trial
    recomputes a power. A trial whose value on `f.vertex_ray` lies above
    its threshold by more than the ray's rounding margin is rejected
    without building the point or calling `f.value`; it still counts as a
    trial. `VertexRay.first_open` screens the rungs in one loop over
    floats, and every other trial, each accepted one included, is
    evaluated by `f.value`, so the step, value and point returned are those
    of evaluating every trial.

    x is validated as the oracle validates it: the cached key of `f` is
    not rescanned, any other array is scanned in full. So are the evaluated
    trials: one from the key is built as `vertex_step` builds a step,
    checking only its entry i, and becomes the key with a state built by
    `_make_state` (never a derived one), so that `value` reads it without a
    scan; one from any other x is scanned in full by `value`.

    Raises ValueError when the supplied directional derivative is not
    negative or i is not an integer index of x, and LineSearchError when m
    would pass the ladder's last rung. A trial that rounds back to x itself
    is never accepted: it raises NonFiniteOracleError carrying x when an earlier
    evaluated trial value was not finite, and LineSearchError otherwise.
    Either error from the search carries its number of trials as `trials`.
    """
    if not (0.0 < beta < 1.0 and 0.0 < theta < 1.0):
        raise ValueError(f"beta and theta must lie in (0,1), got {beta}, {theta}")
    if not directional_derivative < 0.0:
        raise ValueError(
            "armijo_step requires a descent direction: "
            f"<f'(x), d> = {directional_derivative} is not negative")
    if x is not f._cache_x:  # the key was validated when it entered the cache
        x = as_vector(x, f.n)
    ray = f.vertex_ray(x, i, b)  # refuses an i that is not an integer index of x
    # as floats, so that an equal numpy scalar neither shares nor sets the
    # type of a cached rung
    ladder = _ladder(float(theta), float(beta))
    non_finite = False
    m = 0
    while True:
        if ray is not None:
            # the rungs it skips are rejected unevaluated: f(trial) > threshold for certain
            m = ray.first_open(ladder, m, f_x, directional_derivative)
        if m >= len(ladder):
            break
        lam, blam = ladder[m][:2]
        threshold = f_x + blam * directional_derivative
        trial = f._step(x, i, b, lam, False)  # from the key: no scan in `value`
        f_trial = f.value(trial)
        if f_trial <= threshold:
            if f_trial == f_x and np.array_equal(trial, x):
                # theta^m has rounded the step away: a null step is no progress
                if non_finite:
                    raise NonFiniteOracleError(
                        f"non-finite trial values until the step rounded to zero "
                        f"after {m + 1} trials", point=x, trials=m + 1)
                raise LineSearchError(
                    f"the step rounded to zero after {m + 1} trials "
                    f"(directional derivative {directional_derivative})",
                    point=x, vertex=i, directional_derivative=directional_derivative,
                    trials=m + 1)
            return ArmijoResult(lam, m + 1, f_trial, trial)
        non_finite = non_finite or not math.isfinite(f_trial)
        m += 1
    raise LineSearchError(
        f"no acceptable step after {len(ladder)} trials "
        f"(directional derivative {directional_derivative})",
        point=x, vertex=i, directional_derivative=directional_derivative, trials=len(ladder))
