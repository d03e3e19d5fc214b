"""Benchmark harness: run plans over the problem grid, emit CSV/markdown
tables, and the `condgrad` command line (subcommands bench and solve).

`condgrad bench` writes its table to `--out` or stdout and a summary line,
`K/N runs converged, S s of solve time`, to stderr."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import solvers
from .core import Counters, Status
from .problems import ProblemSpec, build_instance, lipschitz_upper_bound
from .solvers import SolverConfig

METHOD_ORDER = ("cgm", "cgms", "cgmi", "cgmis", "cgmil")

_SERIES_TITLES = {
    1: "quadratic form",
    2: "quadratic form plus inverse barrier",
    3: "least squares",
    4: "least squares plus inverse barrier",
}


@dataclass(frozen=True)
class RunRow:
    """One benchmark result, mirroring the CSV column layout."""

    series: int
    method: str
    m: int
    n: int
    it: int
    kf: int
    kg: int
    restarts: int
    f_final: float
    mu_final: float
    status: str
    wall_ms: float


def _fmt_float(v: float) -> str:
    return f"{v:.6g}"


# (name, formatter) per RunRow field, in column order: the one layout that
# the CSV and markdown tables share
_COLUMNS = tuple((f.name, _fmt_float if f.type == "float" else str)
                 for f in dataclasses.fields(RunRow))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)
# a markdown table's heading names its series
_MD_COLUMNS = tuple(c for c in _COLUMNS if c[0] != "series")


def _cells(row: RunRow, columns) -> list:
    return [fmt(getattr(row, name)) for name, fmt in columns]


@dataclass(frozen=True)
class BenchPlan:
    """A grid of problem instances crossed with solver methods."""

    cells: tuple
    methods: tuple
    config: SolverConfig

    def __post_init__(self):
        if not self.cells or not self.methods:
            raise ValueError("a plan needs at least one cell and one method")
        for m in self.methods:
            if m not in METHOD_ORDER:
                raise ValueError(f"unknown method {m!r}")


_DEFAULT_SQUARE_SIZES = (5, 10, 20, 50, 100)
_DEFAULT_RECT_SHAPES = ((2, 5), (5, 10), (10, 20), (25, 50), (50, 100))


def default_plan(include_cgmil: bool = False,
                 config: Optional[SolverConfig] = None,
                 series: Optional[int] = None,
                 m: Optional[int] = None,
                 n: Optional[int] = None) -> BenchPlan:
    """The standard benchmark grid: series 1-2 at n in {5,10,20,50,100},
    series 3-4 at (m,n) in {(2,5),(5,10),(10,20),(25,50),(50,100)}, with
    methods cgm, cgms, cgmi, cgmis (cgmil only behind its flag), b = 10.

    `series`, `m`, `n` restrict the grid to matching cells.
    """
    cells = []
    for s in (1, 2):
        for size in _DEFAULT_SQUARE_SIZES:
            cells.append(ProblemSpec(series=s, n=size))
    for s in (3, 4):
        for rows, cols in _DEFAULT_RECT_SHAPES:
            cells.append(ProblemSpec(series=s, n=cols, m=rows))
    if series is not None:
        cells = [c for c in cells if c.series == series]
    if n is not None:
        cells = [c for c in cells if c.n == n]
    if m is not None:
        cells = [c for c in cells if c.rows == m]
    if not cells:
        raise ValueError("no default-plan cells match the requested restriction")
    methods = ("cgm", "cgms", "cgmi", "cgmis") + (("cgmil",) if include_cgmil else ())
    return BenchPlan(cells=tuple(cells), methods=methods,
                     config=config or SolverConfig())


def run_single(spec: ProblemSpec, method: str, config: SolverConfig,
               trace: Optional[list] = None):
    """Run one (instance, method) pair, calling `solvers.solve_<method>`.
    Returns (RunRow, SolveReport or None); the report is None when the run
    raised, and the row then carries Error, NaN f and gap, and the counters
    the exception carries (zeros when it carries none, as when it was raised
    before the run started). With a `trace` list, the solver appends one
    StepRecord per iteration. `wall_ms` times the solve_* call only, not the
    instance build or the Lipschitz bound (0 when the run fails before its
    solve starts)."""
    started, report = None, None
    try:
        if method not in METHOD_ORDER:
            raise ValueError(f"unknown method {method!r}")
        objective, feasible, x0 = build_instance(spec)
        args = (objective, feasible, config, x0)
        if method == "cgmil":
            args += (lipschitz_upper_bound(spec, feasible),)
        started = time.perf_counter()
        report = getattr(solvers, "solve_" + method)(*args, trace=trace)
    except Exception as exc:
        wall = 0.0 if started is None else 1e3 * (time.perf_counter() - started)
        print(f"condgrad: series {spec.series} m={spec.rows} n={spec.n} "
              f"{method}: {exc}", file=sys.stderr)
        c, f, gap, status = getattr(exc, "counters", Counters()), math.nan, math.nan, Status.ERROR
    else:
        wall = 1e3 * (time.perf_counter() - started)
        c, f, gap, status = report.counters, report.f, report.gap, report.status
    row = RunRow(spec.series, method, spec.rows, spec.n, c.it, c.kf, c.kg,
                 c.restarts, f, gap, status.value, wall)
    return row, report


def run_plan(plan: BenchPlan):
    """Execute every (cell, method) pair of the plan.

    Rows come back ordered by (series, size, method in plan order); failures
    become status=Error rows and never abort the rest of the plan.
    """
    cells = sorted(plan.cells, key=lambda c: (c.series, c.rows, c.n))
    return [run_single(spec, method, plan.config)[0]
            for spec in cells for method in plan.methods]


def format_rows_csv(rows) -> str:
    lines = [CSV_HEADER] + [",".join(_cells(r, _COLUMNS)) for r in rows]
    return "\n".join(lines) + "\n"


def format_rows_markdown(rows) -> str:
    """One table per series; within a table, method blocks in canonical
    order, sizes ascending inside each block."""
    out = []
    for series in sorted({r.series for r in rows}):
        chunk = [r for r in rows if r.series == series]
        chunk.sort(key=lambda r: (METHOD_ORDER.index(r.method), r.m, r.n))
        out.append(f"## Series {series}: {_SERIES_TITLES.get(series, '')}".rstrip())
        out.append("")
        out.append("| " + " | ".join(name for name, _ in _MD_COLUMNS) + " |")
        out.append("|" + "---|" * len(_MD_COLUMNS))
        for r in chunk:
            out.append("| " + " | ".join(_cells(r, _MD_COLUMNS)) + " |")
        out.append("")
    return "\n".join(out)


def emit_table(rows, fmt: str = "csv", destination=None) -> None:
    """Write rows as CSV or markdown to a path, or to stdout when
    `destination` is None.

    Refuses empty row lists before touching the destination.
    """
    if not rows:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        text = format_rows_csv(rows)
    elif fmt == "md":
        text = format_rows_markdown(rows)
    else:
        raise ValueError(f"format must be csv or md, got {fmt!r}")
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text)


# ---------------------------------------------------------------------------
# iterate traces

TRACE_HEADER = "k,lam,f,mu,stage,delta_p"


def _trace_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def write_trace_csv(report, steps: list, destination) -> None:
    """Write per-iterate records (it+1 of them, the terminal point
    included) to the file at `destination`: columns k, lam, f, mu, stage,
    delta_p; unknown values stay empty. `steps` is the run's trace list.
    `mu` is each step's `StepRecord.mu` and the terminal record's certified
    gap; the terminal stage is `report.counters.restarts + 1`, and its
    `delta_p` the last step's (empty when the run took no step). With
    `report` None (the run raised) the file holds the traced steps only,
    without a terminal record."""
    lines = [TRACE_HEADER]
    for k, s in enumerate(steps):
        lines.append(",".join([
            str(k), _trace_cell(s.lam), _trace_cell(s.f_before),
            _trace_cell(s.mu), str(s.stage), _trace_cell(s.delta)]))
    if report is not None:
        lines.append(",".join([
            str(report.counters.it), "", _trace_cell(report.f), _trace_cell(report.gap),
            str(report.counters.restarts + 1),
            _trace_cell(steps[-1].delta if steps else None)]))
    Path(destination).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# command line

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per SolverConfig field: `--<name>` (`--max-iter` for
    max_iterations), with the field's default and its help text."""
    for f in dataclasses.fields(SolverConfig):
        flag = "--max-iter" if f.name == "max_iterations" else "--" + f.name
        p.add_argument(flag, dest=f.name, type=int if f.type == "int" else float,
                       default=f.default, help=f.metadata["help"])
    p.add_argument("--dump-config", action="store_true",
                   help="print the fully resolved solver configuration as JSON "
                        "to stderr")


def _or_usage_error(parser: argparse.ArgumentParser, make, **kwargs):
    """make(**kwargs), the object that the flags describe; a ValueError
    from it is a usage error (exit 2), refused before any run."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _config_from_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> SolverConfig:
    config = _or_usage_error(parser, SolverConfig, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)})
    if args.dump_config:
        print(json.dumps(dataclasses.asdict(config), sort_keys=True), file=sys.stderr)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condgrad", allow_abbrev=False,
        description="Projection-free conditional gradient benchmarks on the scaled simplex")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", allow_abbrev=False,
                           help="run a benchmark plan and emit a table")
    bench.set_defaults(parser=bench)
    _add_config_flags(bench)
    bench.add_argument("--series", type=int, choices=(1, 2, 3, 4),
                       help="restrict the grid to one series")
    bench.add_argument("--m", type=int, help="restrict the grid to one row count")
    bench.add_argument("--n", type=int, help="restrict the grid to one dimension")
    bench.add_argument("--format", choices=("csv", "md"), default="csv")
    bench.add_argument("--out", help="output path (default: stdout)")
    bench.add_argument("--include-cgmil", action="store_true",
                       help="add the fixed-step method to the grid")

    solve = sub.add_parser("solve", allow_abbrev=False, help="run one instance with one method")
    solve.set_defaults(parser=solve)
    solve.add_argument("--series", type=int, required=True, choices=(1, 2, 3, 4))
    solve.add_argument("--m", type=int, help="row count (series 3-4)")
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--method", required=True, choices=METHOD_ORDER)
    _add_config_flags(solve)
    solve.add_argument("--format", choices=("csv", "md"), default="csv")
    solve.add_argument("--out", help="output path for the result row (default: stdout)")
    solve.add_argument("--trace", help="write per-iteration records as CSV to this path")
    return parser


def _cmd_bench(parser, args) -> int:
    config = _config_from_args(parser, args)
    plan = _or_usage_error(parser, default_plan, include_cgmil=args.include_cgmil,
                           config=config, series=args.series, m=args.m, n=args.n)
    rows = run_plan(plan)
    emit_table(rows, fmt=args.format, destination=args.out)
    converged = sum(r.status == Status.CONVERGED.value for r in rows)
    solve_s = sum(r.wall_ms for r in rows) / 1e3
    print(f"{converged}/{len(rows)} runs converged, {solve_s:.1f} s of solve time",
          file=sys.stderr)
    return 1 if any(r.status == Status.ERROR.value for r in rows) else 0


def _cmd_solve(parser, args) -> int:
    config = _config_from_args(parser, args)
    spec = _or_usage_error(parser, ProblemSpec, series=args.series, n=args.n, m=args.m)
    trace = [] if args.trace else None
    row, report = run_single(spec, args.method, config, trace=trace)
    if args.trace:
        write_trace_csv(report, trace, args.trace)
    emit_table([row], fmt=args.format, destination=args.out)
    return 1 if report is None else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a usage error prints the subcommand's own usage line, with its flags
    parser = args.parser
    # an output path that is a directory or lies in a missing one, or --out
    # and --trace naming one file, is a usage error, refused before any run;
    # both may name one stream (/dev/stdout on a pipe or a terminal), which
    # takes the trace and then the row
    paths = [Path(p) for p in (args.out, getattr(args, "trace", None)) if p]
    for path in paths:
        if not path.parent.is_dir():
            parser.error(f"no directory for the output path {str(path)!r}")
        if path.is_dir():
            parser.error(f"the output path {str(path)!r} is a directory")
    if (len(paths) == 2 and paths[0].resolve() == paths[1].resolve()
            and (paths[0].is_file() or not paths[0].exists())):
        parser.error("--out and --trace name the same file")
    command = _cmd_bench if args.command == "bench" else _cmd_solve
    return command(parser, args)


if __name__ == "__main__":
    sys.exit(main())
