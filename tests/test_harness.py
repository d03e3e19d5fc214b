"""Harness: plans, rows, table emission, trace files, and the CLI."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import condgrad.harness as hz
import condgrad.solvers as solvers
from condgrad.harness import (
    CSV_HEADER,
    BenchPlan,
    RunRow,
    default_plan,
    emit_table,
    format_rows_csv,
    format_rows_markdown,
    main,
    run_plan,
    run_single,
)
from condgrad.core import LineSearchError
from condgrad.problems import ProblemSpec, build_instance
from condgrad.solvers import SolverConfig, StepRecord


SMALL_PLAN = BenchPlan(
    cells=(ProblemSpec(series=1, n=5), ProblemSpec(series=3, n=5, m=2)),
    methods=("cgm", "cgms"),
    config=SolverConfig(),
)


# ---------------------------------------------------------------------------
# plans

def test_default_plan_shape():
    plan = default_plan()
    assert len(plan.cells) == 20
    assert plan.methods == ("cgm", "cgms", "cgmi", "cgmis")
    assert len(plan.cells) * len(plan.methods) == 80
    assert all(c.b == 10.0 for c in plan.cells)
    assert plan.config.eps == 0.1
    assert (plan.config.beta, plan.config.theta) == (0.5, 0.5)
    assert (plan.config.sigma, plan.config.nu) == (0.9, 0.5)
    sizes = sorted((c.rows, c.n) for c in plan.cells if c.series == 3)
    assert sizes == [(2, 5), (5, 10), (10, 20), (25, 50), (50, 100)]
    assert sorted(c.n for c in plan.cells if c.series == 1) == [5, 10, 20, 50, 100]


def test_default_plan_cgmil_flag_and_filters():
    assert default_plan(include_cgmil=True).methods[-1] == "cgmil"
    only = default_plan(series=1, n=5)
    assert len(only.cells) == 1
    with pytest.raises(ValueError):
        default_plan(series=1, n=7)


def test_plan_validation():
    with pytest.raises(ValueError):
        BenchPlan(cells=(), methods=("cgm",), config=SolverConfig())
    with pytest.raises(ValueError):
        BenchPlan(cells=(ProblemSpec(series=1, n=5),), methods=("nope",),
                  config=SolverConfig())


# ---------------------------------------------------------------------------
# running

def test_run_plan_rows_and_identities():
    rows = run_plan(SMALL_PLAN)
    assert [(r.series, r.method) for r in rows] == [
        (1, "cgm"), (1, "cgms"), (3, "cgm"), (3, "cgms")]
    for r in rows:
        assert r.status == "Converged"
        assert r.kg == r.n * r.it
        if r.method == "cgms":
            assert r.kf == r.it
        assert r.m == (2 if r.series == 3 else 5)


def test_run_plan_deterministic_modulo_wall():
    a = run_plan(SMALL_PLAN)
    b = run_plan(SMALL_PLAN)
    strip = lambda r: (r.series, r.method, r.m, r.n, r.it, r.kf, r.kg,
                       r.restarts, r.f_final, r.mu_final, r.status)
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_run_single_captures_errors_as_rows(monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(solvers, "solve_cgm", boom)
    row, report = run_single(ProblemSpec(series=1, n=5), "cgm", SolverConfig())
    assert report is None
    assert row.status == "Error"
    assert row.it == 0 and np.isnan(row.f_final)
    # and the plan keeps going despite the failure
    rows = run_plan(SMALL_PLAN)
    assert [r.status for r in rows] == ["Error", "Converged", "Error", "Converged"]


def test_an_error_row_reports_what_the_run_charged():
    # beta near 1 leaves the Armijo search on series 2 at n = 20 no step
    # after 35 iterations; the row reports the counters the run charged
    config = SolverConfig(beta=0.999999999, eps=1e-6, max_iterations=20000)
    trace = []
    row, report = run_single(ProblemSpec(series=2, n=20), "cgmi", config, trace=trace)
    assert report is None and row.status == "Error"
    assert row.it == len(trace) == 35

    objective, feasible, x0 = build_instance(ProblemSpec(series=2, n=20))
    with pytest.raises(LineSearchError) as caught:
        solvers.solve_cgmi(objective, feasible, config, x0)
    c = caught.value.counters
    assert (row.it, row.kf, row.kg, row.restarts) == (c.it, c.kf, c.kg, c.restarts)
    assert row.kf > 0 and row.kg > 0
    assert np.isnan(row.f_final) and np.isnan(row.mu_final)


def test_an_error_before_the_run_starts_reports_zero_cost(monkeypatch, capsys):
    # a start off the simplex is refused before the run charges anything
    objective, feasible, _ = build_instance(ProblemSpec(series=1, n=5))
    monkeypatch.setattr(hz, "build_instance", lambda spec: (objective, feasible, np.ones(5)))
    row, report = run_single(ProblemSpec(series=1, n=5), "cgm", SolverConfig())
    assert report is None and row.status == "Error"
    assert (row.it, row.kf, row.kg, row.restarts) == (0, 0, 0, 0)
    assert "not feasible" in capsys.readouterr().err
    # as is a method that the harness does not know
    row, report = run_single(ProblemSpec(series=1, n=5), "nonsense", SolverConfig())
    assert report is None and row.status == "Error"
    assert (row.it, row.kf, row.kg, row.restarts, row.wall_ms) == (0, 0, 0, 0, 0.0)


def test_run_single_wall_ms_times_the_solve_only(monkeypatch):
    delay = 0.25
    build = hz.build_instance

    def slow_build(spec):
        time.sleep(delay)
        return build(spec)

    monkeypatch.setattr(hz, "build_instance", slow_build)
    started = time.perf_counter()
    row, report = run_single(ProblemSpec(series=1, n=5), "cgmil", SolverConfig())
    assert report is not None and time.perf_counter() - started >= delay
    assert 0.0 < row.wall_ms < 1e3 * delay


# ---------------------------------------------------------------------------
# emission

def _sample_rows():
    return [
        RunRow(1, "cgm", 5, 5, 202, 2098, 1010, 0, 13.5533713, 0.0913450551, "Converged", 12.5),
        RunRow(1, "cgms", 5, 5, 65, 65, 325, 0, 13.553415121, 0.076091, "Converged", 3.25),
    ]


def test_csv_layout_and_roundtrip():
    text = format_rows_csv(_sample_rows())
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "series,method,m,n,it,kf,kg,restarts,f_final,mu_final,status,wall_ms"
    fields = lines[1].split(",")
    assert fields[:8] == ["1", "cgm", "5", "5", "202", "2098", "1010", "0"]
    assert fields[8] == "13.5534"  # six significant digits
    # integer fields survive a round trip exactly
    parsed = [int(v) for v in fields[4:8]]
    assert parsed == [202, 2098, 1010, 0]


def test_markdown_groups_by_series_with_method_blocks():
    rows = run_plan(BenchPlan(
        cells=(ProblemSpec(series=1, n=5),),
        methods=("cgm", "cgms", "cgmi", "cgmis"),
        config=SolverConfig()))
    text = format_rows_markdown(rows)
    assert "## Series 1" in text
    order = [ln.split("|")[1].strip() for ln in text.splitlines()
             if ln.startswith("| cg")]
    assert order == ["cgm", "cgms", "cgmi", "cgmis"]


def test_emit_table_to_path_and_errors(tmp_path):
    out = tmp_path / "rows.csv"
    emit_table(_sample_rows(), "csv", out)
    assert out.read_text().startswith(CSV_HEADER)
    target = tmp_path / "nothing.csv"
    with pytest.raises(ValueError):
        emit_table([], "csv", target)
    assert not target.exists()  # refused before touching the destination
    with pytest.raises(OSError):
        emit_table(_sample_rows(), "csv", tmp_path / "no" / "such" / "dir.csv")


# ---------------------------------------------------------------------------
# command line

def test_cli_solve_row_and_identity(capsys):
    code = main(["solve", "--series", "1", "--n", "5", "--method", "cgms"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    f = lines[1].split(",")
    assert f[0] == "1" and f[1] == "cgms" and f[3] == "5"
    assert f[4] == f[5]  # kf == it
    assert f[10] == "Converged"


def test_cli_trace_file_has_it_plus_one_records(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    code = main(["solve", "--series", "3", "--m", "2", "--n", "5",
                 "--method", "cgm", "--trace", str(trace_path)])
    assert code == 0
    out_row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    it = int(out_row[4])
    lines = trace_path.read_text().strip().split("\n")
    assert lines[0] == "k,lam,f,mu,stage,delta_p"
    assert len(lines) - 1 == it + 1
    # the terminal record carries the final objective and certified gap
    last = lines[-1].split(",")
    assert int(last[0]) == it
    assert float(last[2]) == float(out_row[8]) or abs(float(last[2]) - float(out_row[8])) < 1e-4


def test_cli_trace_of_an_inexact_method_follows_its_stages(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    assert main(["solve", "--series", "2", "--n", "5", "--method", "cgmi",
                 "--trace", str(trace_path)]) == 0
    it = int(capsys.readouterr().out.strip().split("\n")[1].split(",")[4])
    lines = trace_path.read_text().strip().split("\n")
    assert len(lines) - 1 == it + 1
    records = [(int(ln.split(",")[4]), float(ln.split(",")[5])) for ln in lines[1:]]
    nu = SolverConfig().nu
    for (stage, delta), (next_stage, next_delta) in zip(records, records[1:]):
        assert next_stage >= stage
        if next_stage > stage:
            # nu = 0.5 scales delta_p exactly
            assert next_delta == delta * nu ** (next_stage - stage)
        else:
            assert next_delta == delta
    steps = []
    _, report = run_single(ProblemSpec(series=2, n=5), "cgmi", SolverConfig(), trace=steps)
    assert report.counters.restarts >= 2 and report.counters.it == it
    # the terminal record is in the last stage, whose tolerance its last step holds
    assert steps[-1].stage == report.counters.restarts + 1
    assert records[-1] == (report.counters.restarts + 1, steps[-1].delta)
    # mu is known at x0 (the default delta0 rule), at each stage's first step
    # (the gap that closed the stage before) and at the end, and only there
    has_mu = [ln.split(",")[3] != "" for ln in lines[1:]]
    opens = [True] + [b > a for (a, _), (b, _) in zip(records, records[1:])]
    assert has_mu == opens[:-1] + [True]


def test_cli_solve_that_raises_writes_its_error_row_and_partial_trace(
        monkeypatch, tmp_path, capsys):
    def two_steps_then_boom(*a, trace=None):
        for k in range(2):
            trace.append(StepRecord(stage=1, delta=0.5, lam=0.25 * (k + 1), trials=1,
                                    f_before=3.0 - k, dir_derivative=-1.0, vertex=k,
                                    accepted=None, mu=float("nan"), tests=0))
        raise LineSearchError("synthetic failure")

    monkeypatch.setattr(solvers, "solve_cgmi", two_steps_then_boom)
    trace_path = tmp_path / "t.csv"
    assert main(["solve", "--series", "2", "--n", "5", "--method", "cgmi",
                 "--trace", str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert "synthetic failure" in captured.err
    header, row = captured.out.strip().split("\n")
    assert header == CSV_HEADER and row.split(",")[10] == "Error"
    # the traced steps, and no terminal record, as there is no report
    assert trace_path.read_text() == ("k,lam,f,mu,stage,delta_p\n"
                                      "0,0.25,3.0,,1,0.5\n"
                                      "1,0.5,2.0,,1,0.5\n")


def test_cli_usage_errors_exit_2(tmp_path, monkeypatch):
    # an output path in a directory that does not exist is refused before any run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(hz, "run_plan", no_run)
    monkeypatch.setattr(hz, "run_single", no_run)
    missing = tmp_path / "missing"
    for argv in (["bench", "--series", "1", "--n", "5", "--out", str(missing / "x.csv")],
                 ["solve", "--series", "1", "--n", "5", "--method", "cgm",
                  "--out", str(missing / "row.csv")],
                 ["solve", "--series", "1", "--n", "5", "--method", "cgm",
                  "--trace", str(missing / "t.csv")]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
    assert not missing.exists()
    # so is an output path that is a directory, and --out and --trace naming
    # one file, however spelled: the trace would be overwritten by the row
    sub = tmp_path / "sub"
    sub.mkdir()
    solve = ["solve", "--series", "1", "--n", "5", "--method", "cgms"]
    for argv in (["bench", "--series", "1", "--n", "5", "--out", str(tmp_path)],
                 solve + ["--out", str(tmp_path)],
                 solve + ["--trace", str(sub)],
                 solve + ["--trace", str(sub / "f.csv"), "--out", str(sub / "f.csv")],
                 solve + ["--trace", str(sub / ".." / "sub" / "f.csv"),
                          "--out", str(sub / "f.csv")]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
    assert list(tmp_path.rglob("*")) == [sub]
    with pytest.raises(SystemExit) as e:
        main(["solve", "--series", "1", "--n", "5", "--method", "cgms",
              "--eps", "0.0"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["solve", "--series", "9", "--n", "5", "--method", "cgm"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["solve", "--series", "3", "--n", "5", "--method", "cgm"])
    assert e.value.code == 2  # missing m for a rectangular series
    with pytest.raises(SystemExit) as e:
        main(["nonsense"])
    assert e.value.code == 2


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
def test_cli_out_and_trace_may_name_one_stream():
    # /dev/stdout on a pipe is not a file: the trace goes out, then the row
    env = dict(os.environ, PYTHONPATH=str(Path(hz.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from condgrad.harness import main; "
         "sys.exit(main(sys.argv[1:]))", "solve", "--series", "1", "--n", "5",
         "--method", "cgms", "--trace", "/dev/stdout", "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == hz.TRACE_HEADER and CSV_HEADER in lines


def test_cli_dump_config(capsys):
    code = main(["solve", "--series", "1", "--n", "5", "--method", "cgm",
                 "--eps", "0.2", "--dump-config"])
    assert code == 0
    captured = capsys.readouterr()
    first = captured.err.strip().split("\n")[0]
    cfg = json.loads(first)
    assert cfg["eps"] == 0.2
    assert cfg["max_iterations"] == 10 ** 6
    assert cfg["delta0"] is None
    # standard output stays one table
    assert captured.out.split("\n")[0] == CSV_HEADER


# a valid value other than the default for each SolverConfig field
_NON_DEFAULT = {"beta": 0.25, "theta": 0.75, "sigma": 0.5, "nu": 0.25, "eps": 0.2,
                "delta0": 1.5, "tau0": 0.5, "max_iterations": 5000}


@pytest.mark.parametrize("command", [["solve", "--method", "cgm"], ["bench"]])
def test_cli_flags_are_the_solver_config_fields(command, tmp_path, capsys):
    names = [f.name for f in dataclasses.fields(SolverConfig)]
    assert sorted(names) == sorted(_NON_DEFAULT)

    def dumped(flags):
        assert main(command + ["--series", "1", "--n", "5", "--out", str(tmp_path / "rows.csv"),
                               "--dump-config"] + flags) == 0
        return json.loads(capsys.readouterr().err.split("\n")[0])

    def flag(name, value):
        return ["--max-iter" if name == "max_iterations" else "--" + name, str(value)]

    assert dumped([]) == dataclasses.asdict(SolverConfig())
    for name, value in _NON_DEFAULT.items():
        assert getattr(SolverConfig(), name) != value
        assert dumped(flag(name, value)) == dataclasses.asdict(SolverConfig(**{name: value}))
    assert dumped([a for item in _NON_DEFAULT.items() for a in flag(*item)]) == _NON_DEFAULT


# every option of each subcommand, spelled in full
_FULL_FLAGS = {
    "solve": ["--series", "3", "--m", "2", "--n", "5", "--method", "cgm", "--format", "md",
              "--out", "rows.md", "--trace", "trace.csv", "--dump-config"],
    "bench": ["--series", "3", "--m", "2", "--n", "5", "--format", "md", "--out", "rows.md",
              "--include-cgmil", "--dump-config"],
}


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_cli_takes_every_flag_in_full_and_no_abbreviation(command):
    parser = hz.build_parser()
    config = [a for name, value in _NON_DEFAULT.items()
              for a in ("--max-iter" if name == "max_iterations" else "--" + name, str(value))]
    args = parser.parse_args([command] + _FULL_FLAGS[command] + config)
    assert {name: getattr(args, name) for name in _NON_DEFAULT} == _NON_DEFAULT
    sub = parser._subparsers._group_actions[0].choices[command]
    defined = {flag for action in sub._actions for flag in action.option_strings}
    assert defined - {"-h", "--help"} == {a for a in _FULL_FLAGS[command] + config
                                          if a.startswith("--")}
    # `--b` once set beta, though b is the paper's mass; `--max` and `--e`
    # resolved to --max-iter and --eps, and `--hel` to --help
    required = _FULL_FLAGS[command][:8] if command == "solve" else []
    for abbreviation in (["--b", "0.5"], ["--max", "5"], ["--e", "0.2"], ["--ser", "1"],
                         ["--include"], ["--hel"]):
        with pytest.raises(SystemExit) as e:
            parser.parse_args([command] + required + abbreviation)
        assert e.value.code == 2, abbreviation
    with pytest.raises(SystemExit) as e:
        parser.parse_args(["--hel"])
    assert e.value.code == 2


@pytest.mark.parametrize("command", [["solve", "--method", "cgm"], ["bench"]])
def test_cli_dump_config_defaults_are_the_solver_config(command, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(command + ["--series", "1", "--n", "5", "--out", str(out),
                           "--dump-config"]) == 0
    captured = capsys.readouterr()
    # the JSON line comes first on stderr; bench's summary line follows it
    printed = captured.err.split("\n")[0] + "\n"
    assert printed == json.dumps(dataclasses.asdict(SolverConfig()), sort_keys=True) + "\n"
    assert captured.out == ""


def test_cli_bench_subset(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--series", "1", "--n", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4
    assert all(ln.split(",")[10] == "Converged" for ln in lines[1:])


def test_cli_bench_markdown(tmp_path):
    out = tmp_path / "bench.md"
    code = main(["bench", "--series", "2", "--n", "5", "--format", "md",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("## Series 2")


def test_cli_bench_writes_a_summary_line_to_stderr(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--series", "1", "--n", "5", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"4/4 runs converged, \d+\.\d s of solve time\n", captured.err)
    assert out.read_text().split("\n")[0] == CSV_HEADER


def test_cli_has_no_check_subcommand():
    with pytest.raises(SystemExit) as e:
        main(["check"])
    assert e.value.code == 2
