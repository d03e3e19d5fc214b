"""The public surface: what the package exports, what its reference
module defines, and the fields of its run records, pinned so that none
grows back unnoticed."""

import ast
import dataclasses
import inspect
import re
import types
from pathlib import Path

import condgrad
from condgrad import core, oracle, solvers

README = Path(__file__).resolve().parents[1] / "README.md"

TOP_LEVEL = {
    "solve_cgm", "solve_cgms", "solve_cgmi", "solve_cgmis", "solve_cgmil",
    "SolverConfig", "SolveReport", "Status", "SimplexSet",
    "SmoothObjective", "StageLimitError", "NonFiniteOracleError",
    "LineSearchError", "DescentViolationError", "armijo_step", "exact_lmo",
    "step_point", "ProblemSpec", "build_instance", "lipschitz_upper_bound",
    "QuadraticFormObjective", "LeastSquaresObjective",
}


def test_the_package_exports_exactly_the_names_the_readme_lists():
    exported = {name for name, value in vars(condgrad).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == TOP_LEVEL and len(TOP_LEVEL) == 22
    text = " ".join(README.read_text().split())
    paragraph = re.search(r"The top level of `condgrad` exports (.*?) Everything else", text)
    assert set(re.findall(r"`(\w+)`", paragraph.group(1))) == TOP_LEVEL


def test_the_oracle_module_defines_only_the_brute_force_gap():
    defined = [name for name, value in vars(oracle).items()
               if not name.startswith("_") and callable(value)
               and getattr(value, "__module__", None) == oracle.__name__]
    assert defined == ["brute_force_gap"]
    # it checks the solvers, so it reads nothing of them or of the problems
    tree = ast.parse(inspect.getsource(oracle))
    sources = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert sources == {"core"}


def test_the_objective_offers_one_channel_per_oracle():
    public = {name for name, value in vars(core.SmoothObjective).items()
              if not name.startswith("_") and callable(value)}
    assert public == {"value", "gradient", "gradient_dot_point", "vertex_step", "vertex_ray"}
    # one cache lookup, and no caller-built step or single-entry derivative
    for name in ("_is_vertex_step", "_vector", "_state_at", "follow_vertex_step", "partial"):
        assert not hasattr(core, name) and not hasattr(core.SmoothObjective, name), name
    # the ray's closed form is a test reference, not library code
    assert not hasattr(core.VertexRay, "value")


def test_core_keeps_no_second_gap_formula():
    assert not hasattr(core, "gap")
    assert not hasattr(core.SimplexSet, "vertex")
    assert not hasattr(core.SimplexSet, "diameter")


def _fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_run_records_are_plain_data_that_state_each_fact_once():
    # a trace is a plain list, and an exhausted scan returns its gap as a float
    assert not hasattr(solvers, "Trace")
    assert not hasattr(solvers, "ExhaustedCycle")
    # the stage cap is a constant, not an option
    assert _fields(solvers.SolverConfig) == [
        "beta", "theta", "sigma", "nu", "eps", "delta0", "tau0", "max_iterations"]
    # k is the list index, f after a step the next f_before (or report.f),
    # and the iterate a replay by step_point from vertex and lam
    assert _fields(solvers.StepRecord) == [
        "stage", "delta", "lam", "trials", "f_before", "dir_derivative",
        "vertex", "accepted", "mu", "tests"]
    # stage p is report.stages[p - 1]
    assert _fields(core.StageRecord) == ["delta", "iterations", "exit_gap", "end_point"]
