"""Brute-force gap by vertex enumeration: the independent reference that the
tests and the benchmark check a run's reported gap against. It shares no
code with the solver paths beyond the objective oracle interface."""

from __future__ import annotations

import math

import numpy as np

from .core import SimplexSet, SmoothObjective, as_vector


def brute_force_gap(f: SmoothObjective, feasible_set: SimplexSet, x) -> float:
    """max_y <f'(x), x - y> by explicit enumeration of every vertex.

    Takes one full gradient, builds each vertex, and maximizes the literal
    inner product; deliberately avoids any fast path or shared formula.
    """
    x = as_vector(x, feasible_set.n)
    if not feasible_set.contains(x):
        raise ValueError("brute_force_gap is only defined for feasible points")
    g = f.gradient(x)
    best = -math.inf
    for i in range(feasible_set.n):
        v = np.zeros(feasible_set.n)
        v[i] = feasible_set.b
        best = max(best, float(np.dot(g, x - v)))
    return best
