"""Span recording for the traced run.

Spans are taken from outside the program, around calls into condgrad's
modules: the names `condgrad.solvers` looks up at call time, `step_point`
in `condgrad.core` (which `armijo_step` calls), and the oracle methods and
state hooks of each objective instance. Each span records its name, start,
end and parent; they are kept in flat arrays and written when the run ends.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from condgrad import core, solvers

# (module, attribute, span name): the names the solvers resolve at call time.
# solvers binds armijo_step, exact_lmo and step_point with `from .core import`,
# so wrapping them in condgrad.core would see no calls from the solvers.
MODULE_HOOKS = (
    (solvers, "armijo_step", "core.armijo_step"),
    (solvers, "exact_lmo", "core.exact_lmo"),
    (solvers, "step_point", "core.step_point"),
    (core, "step_point", "core.step_point"),
    (solvers, "inexact_direction", "solvers.inexact_direction"),
)

# Oracle methods of an objective instance, by span name.
ORACLE_HOOKS = (
    ("value", "core.value"),
    ("gradient", "core.gradient"),
    ("partial", "core.partial"),
    ("gradient_dot_point", "core.gradient_dot_point"),
    ("_make_state", "problems.state_build"),
)

# The hooked names each method calls on every iteration; a traced run that
# iterates without reaching one fails instead of reporting the layer as free.
METHOD_CALLS = {
    "cgm": ("core.exact_lmo", "core.armijo_step", "core.step_point"),
    "cgms": ("core.exact_lmo", "core.step_point"),
    "cgmi": ("solvers.inexact_direction", "core.armijo_step", "core.step_point"),
    "cgmis": ("solvers.inexact_direction", "core.step_point"),
    "cgmil": ("solvers.inexact_direction", "core.step_point"),
}


class Tracer:
    """In-memory span recorder with flat per-field arrays."""

    def __init__(self):
        self.names: list = []
        self._codes: dict = {}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.found = 0  # inexact_direction calls that returned a direction
        self._saved: list = []

    def _code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn):
        """`fn` wrapped so that each call records one span named `name`."""
        code = self._code_of(name)
        codes, starts, ends, parents, stack = (
            self.code, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- instrumentation -----------------------------------------------------

    def patch_modules(self) -> None:
        """Wrap the module-level names the solvers call; undo with restore()."""
        for module, attr, name in MODULE_HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        traced_inexact = solvers.inexact_direction

        def inexact_direction(*args, **kwargs):
            out = traced_inexact(*args, **kwargs)
            self.found += isinstance(out[0], solvers.FoundDirection)
            return out

        solvers.inexact_direction = inexact_direction

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def instrument(self, objective) -> int:
        """Wrap the objective's oracle methods and state hooks on the
        instance; returns the span index the run starts at."""
        for attr, name in ORACLE_HOOKS:
            if hasattr(objective, attr):
                setattr(objective, attr, self.wrap(name, getattr(objective, attr)))
        if hasattr(objective, "_pt_r"):
            # Least squares builds P^T r lazily on the first derivative at a
            # point; only the call that builds it is state-build work.
            build = self.wrap("problems.state_build.pt_r", objective._pt_r)

            def pt_r(state):
                return state["t"] if "t" in state else build(state)

            objective._pt_r = pt_r
        return len(self.start)

    @staticmethod
    def release(objective) -> None:
        """Drop the instance wrappers so later calls go uninstrumented."""
        for attr in [a for a, _ in ORACLE_HOOKS] + ["_pt_r"]:
            objective.__dict__.pop(attr, None)

    def check_run(self, mark: int, objective, method: str, iterations: int):
        """Reason the spans of the run that began at span `mark` disagree with
        the objective's raw tallies (value calls = kf, partial calls +
        n * gradient calls = kg) or miss a name the method calls, or None."""
        counts = self._counts(slice(mark, None))
        value = counts.get("core.value", 0)
        partial = counts.get("core.partial", 0)
        gradient = counts.get("core.gradient", 0)
        if value != objective.kf:
            return f"traced {value} value calls but the objective counted kf = {objective.kf}"
        if partial + objective.n * gradient != objective.kg:
            return (f"traced {partial} partial and {gradient} gradient calls but the "
                    f"objective counted kg = {objective.kg}")
        missed = [name for name in METHOD_CALLS[method] if not counts.get(name)]
        if iterations and missed:
            return f"{iterations} iterations but no traced calls into {', '.join(missed)}"
        return None

    def _counts(self, window) -> dict:
        codes = np.frombuffer(self.code, dtype=np.uint16)[window]
        tally = np.bincount(codes, minlength=len(self.names))
        return {name: int(tally[i]) for i, name in enumerate(self.names)}

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy views; record no further spans while they live."""
        return {
            "names": np.array(self.names),
            "code": np.frombuffer(self.code, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def layer_totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and the
        number of its spans whose parent is each other name."""
        a = self.arrays()
        code, parent = a["code"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(code, minlength=k)
        incl = np.bincount(code, weights=dur, minlength=k)
        self_s = np.bincount(code, weights=own, minlength=k)
        parent_code = np.where(has_parent, code[np.maximum(parent, 0)], k)
        under = np.bincount(code.astype(np.int64) * (k + 1) + parent_code,
                            minlength=k * (k + 1)).reshape(k, k + 1)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i]),
                   "under": {self.names[j]: int(under[i, j]) for j in range(k) if under[i, j]}}
            for i, name in enumerate(self.names)
        }
