"""Session fixtures shared across the suite."""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from condgrad.core import SimplexSet
from condgrad.harness import default_plan, run_single
from condgrad.problems import ProblemSpec

from helpers import f_history, iterates


@dataclass
class CellOutcome:
    spec: ProblemSpec
    method: str
    row: object
    f_history: list
    final_x: np.ndarray
    max_mass_dev: float
    min_coord: float
    light_steps: Optional[list]  # (lam, trials, delta, f_before, f_after)


@pytest.fixture(scope="session")
def grid(request):
    """All 80 default-grid runs with per-iterate feasibility extremes."""
    plan = default_plan()
    outcomes = {}
    started = time.perf_counter()
    for spec in plan.cells:
        D = SimplexSet(spec.n, spec.b)
        for method in plan.methods:
            steps = []
            row, report = run_single(spec, method, plan.config, trace=steps)
            assert report is not None, f"{method} raised on {spec}"
            points = iterates(D.barycenter(), steps, spec.b, method, report)
            mass_dev = max(abs(float(p.sum()) - spec.b) for p in points)
            min_coord = min(float(p.min()) for p in points)
            h = f_history(report, steps)
            light = None
            if method in ("cgmi", "cgmis"):
                light = [(s.lam, s.trials, s.delta, h[k], h[k + 1])
                         for k, s in enumerate(steps)]
            outcomes[(spec.series, spec.rows, spec.n, method)] = CellOutcome(
                spec=spec, method=method, row=row,
                f_history=h,
                final_x=report.x, max_mass_dev=mass_dev,
                min_coord=min_coord, light_steps=light)
    elapsed = time.perf_counter() - started
    return {"outcomes": outcomes, "elapsed_s": elapsed}
