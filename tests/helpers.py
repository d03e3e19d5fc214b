"""Test doubles and small utilities shared across the suite."""

from __future__ import annotations

import numpy as np

from condgrad.core import SmoothObjective


class CallableObjective(SmoothObjective):
    """Oracle built from plain callables; used to script exact scenarios.

    `fn(x) -> float` and `partial_fn(x, i) -> float` must be consistent;
    `gdp_fn(x)` is the optional <f'(x), x> fast path, and `partials_fn(x)`
    the optional vector of all partials.
    """

    def __init__(self, n, fn, partial_fn, gdp_fn=None, partials_fn=None):
        super().__init__(n)
        self._fn = fn
        self._partial_fn = partial_fn
        self._gdp_fn = gdp_fn
        self._partials_fn = partials_fn

    def _make_state(self, x):
        return {}

    def _value_impl(self, x, state):
        return self._fn(x)

    def _partial_impl(self, x, state, i):
        return self._partial_fn(x, i)

    def _gradient_dot_point_impl(self, x, state):
        return None if self._gdp_fn is None else self._gdp_fn(x)

    def _partials(self, x, state):
        return None if self._partials_fn is None else self._partials_fn(x)


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


def scalar_objective(fn, dfn):
    """One-dimensional oracle from f and f'."""
    return CallableObjective(
        1,
        fn=lambda x: float(fn(x[0])),
        partial_fn=lambda x, i: float(dfn(x[0])),
    )


def random_simplex_points(rng, n, b, count):
    """`count` points uniform on the scaled simplex (Dirichlet(1,...,1) * b)."""
    return rng.dirichlet(np.ones(n), size=count) * b


def f_history(report, trace):
    """f at every iterate of a traced run, from f(x0) to the reported f."""
    return [s.f_before for s in trace.steps] + [report.f]
