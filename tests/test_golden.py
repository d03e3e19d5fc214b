"""Golden counters: the solvers reproduce tests/golden_grid.csv byte for byte.

The file pins every run's counters, final f and gap (at full repr
precision), status and a digest of the final iterate, so a refactor of the
solvers or the harness that changes any floating-point operation, oracle
call or stopping decision shows up here as a row diff.

Rows, in file order:
  grid    the 80 default-grid runs (taken from the session `grid` fixture)
  cgmil   cgmil on every default-grid cell with n <= 10
  cap37   each method with max_iterations = 37 on series 4, (m, n) = (5, 10)
  delta0  each method with delta0 = 1.0 on series 2, n = 10
"""

import hashlib
from pathlib import Path

from condgrad.harness import METHOD_ORDER, default_plan, run_single
from condgrad.problems import ProblemSpec
from condgrad.solvers import SolverConfig

GOLDEN = Path(__file__).with_name("golden_grid.csv")

HEADER = "series,method,m,n,case,it,kf,kg,restarts,f,gap,status,x_digest"

CAP_SPEC = ProblemSpec(series=4, n=10, m=5)
DELTA0_SPEC = ProblemSpec(series=2, n=10)


def golden_line(spec, method, case, row, x) -> str:
    digest = hashlib.sha256(x.tobytes()).hexdigest()[:16]
    return ",".join([
        str(spec.series), method, str(spec.rows), str(spec.n), case,
        str(row.it), str(row.kf), str(row.kg), str(row.restarts),
        repr(row.f_final), repr(row.mu_final), row.status, digest,
    ])


def extra_runs():
    """(spec, method, case, config) for every row outside the default grid."""
    runs = [(spec, "cgmil", "cgmil", SolverConfig())
            for spec in default_plan().cells if spec.n <= 10]
    runs += [(CAP_SPEC, m, "cap37", SolverConfig(max_iterations=37))
             for m in METHOD_ORDER]
    runs += [(DELTA0_SPEC, m, "delta0", SolverConfig(delta0=1.0))
             for m in METHOD_ORDER]
    return runs


def extra_lines() -> list:
    lines = []
    for spec, method, case, cfg in extra_runs():
        row, report = run_single(spec, method, cfg)
        assert report is not None, f"{method} raised on {spec} ({case})"
        lines.append(golden_line(spec, method, case, row, report.x))
    return lines


def test_golden_counters_byte_identical(grid):
    plan = default_plan()
    lines = [HEADER]
    for spec in plan.cells:
        for method in plan.methods:
            cell = grid["outcomes"][(spec.series, spec.rows, spec.n, method)]
            lines.append(golden_line(spec, method, "grid", cell.row, cell.final_x))
    lines += extra_lines()
    expected = GOLDEN.read_text().splitlines()
    diff = [f"row {i}: expected {e!r}, got {g!r}"
            for i, (e, g) in enumerate(zip(expected, lines)) if e != g]
    assert len(lines) == len(expected), \
        f"{len(lines)} rows produced, {len(expected)} in {GOLDEN.name}"
    assert not diff, "\n".join(diff)
    print(f"\ngolden PASS: {len(lines) - 1} rows byte-identical to {GOLDEN.name}")
