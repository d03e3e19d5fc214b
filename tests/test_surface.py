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
from condgrad import core, harness, oracle, problems, solvers

README = Path(__file__).resolve().parents[1] / "README.md"

TOP_LEVEL = {
    "solve_cgm", "solve_cgms", "solve_cgmi", "solve_cgmis", "solve_cgmil",
    "SolverConfig", "SolveReport", "Status", "SimplexSet",
    "SmoothObjective", "NonFiniteOracleError",
    "LineSearchError", "DescentViolationError", "armijo_step", "exact_lmo",
    "step_point", "ProblemSpec", "build_instance", "lipschitz_upper_bound",
    "QuadraticFormObjective", "LeastSquaresObjective",
}


def test_the_package_exports_exactly_the_names_the_readme_lists():
    exported = {name for name, value in vars(condgrad).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == TOP_LEVEL and len(TOP_LEVEL) == 21
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
    assert public == {"value", "gradient", "vertex_step", "vertex_ray"}
    # one cache lookup, and no caller-built step, single-entry derivative or
    # second formula for <f'(x), x>
    for name in ("_is_vertex_step", "_vector", "_state_at", "follow_vertex_step", "partial",
                 "gradient_dot_point", "_gradient_dot_point_impl"):
        assert not hasattr(core, name) and not hasattr(core.SmoothObjective, name), name
    for cls in (problems._MatrixObjective, problems.QuadraticFormObjective,
                problems.LeastSquaresObjective):
        assert not any(hasattr(cls, name) for name in
                       ("_quad_dot_point", "_gradient_dot_point_impl")), cls
    # a cheap <f'(x), x> is declared, for the run's charge rule: off by
    # default, on for both benchmark objectives
    assert core.SmoothObjective.cheap_gradient_dot_point is False
    assert problems._MatrixObjective.cheap_gradient_dot_point is True
    assert "cheap_gradient_dot_point" not in vars(problems.QuadraticFormObjective)
    assert "cheap_gradient_dot_point" not in vars(problems.LeastSquaresObjective)
    assert solvers.FoundDirection._fields == ("index", "descent", "tests")
    # the ray's closed form is a test reference, not library code, and the
    # ray is one quadratic, whatever the objective
    assert not hasattr(core.VertexRay, "value")
    assert core.VertexRay._fields == ("c0", "c1", "c2", "margin")


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
    # the tolerance schedule ends every inexact run: no stage cap, as a
    # constant, an error class or an option, under any public name
    assert not [name for name in vars(solvers)
                if "stage" in name.lower() and not name.startswith("_")]
    assert _fields(solvers.SolverConfig) == [
        "beta", "theta", "sigma", "nu", "eps", "delta0", "tau0", "max_iterations"]
    # k is the list index, f after a step the next f_before (or report.f),
    # and the iterate a replay by step_point from vertex and lam
    assert _fields(solvers.StepRecord) == [
        "stage", "delta", "lam", "trials", "f_before", "dir_derivative",
        "vertex", "accepted", "mu", "tests"]
    # the trace is the run's one record of its stages: the report holds the
    # outcome only, and its stage is counters.restarts + 1
    assert _fields(core.SolveReport) == ["x", "f", "gap", "counters", "status"]
    assert not hasattr(core, "StageRecord") and not hasattr(solvers, "StageRecord")


def test_a_line_search_error_names_its_vertex_by_index():
    params = list(inspect.signature(core.LineSearchError).parameters)
    assert params == ["message", "point", "vertex", "directional_derivative", "trials"]
    err = core.LineSearchError("no step", point=None, vertex=2,
                               directional_derivative=-1.0, trials=3)
    assert (err.vertex, err.directional_derivative, err.trials) == (2, -1.0, 3)
    # no dense direction vector is built for the report
    assert not hasattr(core, "_direction")


def test_the_harness_calls_the_solvers_by_name():
    # the methods are solvers.solve_<method>, so the harness binds none of them
    assert not [name for name in vars(harness) if name.startswith("solve_")]
    assert harness.METHOD_ORDER == ("cgm", "cgms", "cgmi", "cgmis", "cgmil")
    assert all(callable(getattr(solvers, "solve_" + m)) for m in harness.METHOD_ORDER)


def test_the_problems_module_keeps_no_identity_memo():
    # make_objective copies one checked objective per spec: no record of
    # which arrays passed a check, and no weak references to keep one
    for name in ("_KEPT", "_FINITE", "_SYMMETRIC", "_passes", "weakref"):
        assert not hasattr(problems, name), name
    tree = ast.parse(inspect.getsource(problems))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "weakref" not in imported
