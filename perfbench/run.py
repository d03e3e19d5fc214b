#!/usr/bin/env python3
"""condgrad benchmark: one seeded workload per process, end to end or traced.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Run from the repository root; condgrad is imported from ./src. With
--trace 0 the run times whole passes over the workload's fixed run list and
prints the end-to-end metrics; with --trace 1 it makes one untraced and one
traced pass of the same runs and prints the per-layer metrics. Either way
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, and the run exits nonzero when any solve
fails the correctness gate. Per-run records, the environment and (when
traced) the spans are written under perfbench/out/. README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("paper-grid", "large-n", "tight-gap")

# The BLAS pool is pinned to one thread for this process only, before numpy
# loads, so that a workload's time does not depend on an idle second core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float,
                    help="measurement budget: one full pass, then more while they fit")
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_QUERIES:
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                return int(query())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def pass_totals(records) -> dict:
    return {
        "solve_s": sum(r.solve_s for r in records),
        "it": sum(r.it for r in records),
        "kf": sum(r.kf for r in records),
        "kg": sum(r.kg for r in records),
    }


def label(record) -> str:
    start = "barycenter" if record.start is None else f"start {record.start}"
    return f"series {record.series} {record.m}x{record.n} {record.method} from {start}"


def outcome(records) -> list:
    return [(r.it, r.kf, r.kg, r.restarts, r.status) for r in records]


def end_to_end(passes, setup_s) -> dict:
    first = pass_totals(passes[0])
    solve_s = statistics.median(pass_totals(p)["solve_s"] for p in passes)
    attempted = sum(len(p) for p in passes)
    ok = sum(r.failure is None for p in passes for r in p)
    return {
        "solve_s": (solve_s, "s"),
        "us_per_it": (1e6 * solve_s / max(first["it"], 1), "us"),
        "setup_s": (setup_s, "s"),
        "it_total": (first["it"], "count"),
        "kf_total": (first["kf"], "count"),
        "kg_total": (first["kg"], "count"),
        "converged_frac": (ok / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(layers, found, traced_s, untraced_s) -> dict:
    """Per-layer metrics from the traced pass. Times of layers that some
    workload never calls are given as a share of traced solve time, so that
    no metric is a time that reads zero on every run of a workload."""
    def get(name):
        return layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "under": {}})

    def pct(seconds):
        return 100.0 * seconds / traced_s

    partial, gdp, value, gradient = (get("core." + n) for n in
                                     ("partial", "gradient_dot_point", "value", "gradient"))
    lmo, armijo, step = get("core.exact_lmo"), get("core.armijo_step"), get("core.step_point")
    state, pt_r = get("problems.state_build"), get("problems.state_build.pt_r")
    inexact = get("solvers.inexact_direction")
    solves = {m: get("solvers.solve_" + m) for m in ("cgm", "cgms", "cgmi", "cgmis", "cgmil")}
    trials = value["under"].get("core.armijo_step", 0)
    oracle_calls = value["calls"] + gradient["calls"] + partial["calls"] + gdp["calls"]
    return {
        "core.partial.calls": (partial["calls"], "count"),
        "core.partial.self_pct": (pct(partial["self_s"]), "%"),
        "core.gradient_dot_point.calls": (gdp["calls"], "count"),
        "core.gradient_dot_point.self_pct": (pct(gdp["self_s"]), "%"),
        "core.value.calls": (value["calls"], "count"),
        "core.value.self_s": (value["self_s"], "s"),
        "core.gradient.calls": (gradient["calls"], "count"),
        "core.gradient.self_s": (gradient["self_s"], "s"),
        "core.exact_lmo.calls": (lmo["calls"], "count"),
        "core.exact_lmo.self_s": (lmo["self_s"], "s"),
        "core.armijo_step.calls": (armijo["calls"], "count"),
        "core.armijo_step.self_s": (armijo["self_s"], "s"),
        "core.armijo_step.trials": (trials, "count"),
        "core.armijo_step.accept_ratio": (armijo["calls"] / trials if trials else 0.0, "ratio"),
        "core.step_point.calls": (step["calls"], "count"),
        "core.step_point.self_s": (step["self_s"], "s"),
        "core.state_cache.hit_ratio": (1.0 - state["calls"] / oracle_calls, "ratio"),
        "problems.state_build.calls": (state["calls"], "count"),
        "problems.state_build.s": (state["s"] + pt_r["s"], "s"),
        "problems.build_instance.s": (get("problems.build_instance")["s"], "s"),
        "problems.lipschitz_upper_bound.calls": (get("problems.lipschitz_upper_bound")["calls"],
                                                 "count"),
        "solvers.inexact_direction.calls": (inexact["calls"], "count"),
        "solvers.inexact_direction.self_pct": (pct(inexact["self_s"]), "%"),
        "solvers.inexact_direction.probes": (partial["under"].get("solvers.inexact_direction", 0),
                                             "count"),
        "solvers.inexact_direction.found_ratio": (found / inexact["calls"] if inexact["calls"]
                                                  else 0.0, "ratio"),
        "solvers.solve.self_s": (sum(s["self_s"] for s in solves.values()), "s"),
        "solvers.solve_cgm.s": (solves["cgm"]["s"], "s"),
        "solvers.solve_cgms.s": (solves["cgms"]["s"], "s"),
        "solvers.solve_cgmi.pct": (pct(solves["cgmi"]["s"]), "%"),
        "solvers.solve_cgmis.pct": (pct(solves["cgmis"]["s"]), "%"),
        "solvers.solve_cgmil.pct": (pct(solves["cgmil"]["s"]), "%"),
        "oracle.brute_force_gap.s": (get("oracle.brute_force_gap")["s"], "s"),
        "trace_overhead": (traced_s / untraced_s - 1.0, "ratio"),
    }


def layer_table(layers) -> list:
    """Every traced layer with its calls, inclusive and self seconds."""
    return [{"layer": name, "calls": v["calls"], "s": v["s"], "self_s": v["self_s"]}
            for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["s"])]


def largest_layers(layers) -> dict:
    """The core or problems layer with the most inclusive time and the one
    with the most self time during the solves (the lazy P^T r counted with
    state build)."""
    out = {}
    for key in ("s", "self_s"):
        times = {n: v[key] for n, v in layers.items() if n.startswith(("core.", "problems."))
                 and n not in ("problems.build_instance", "problems.lipschitz_upper_bound")}
        times["problems.state_build"] = (times.get("problems.state_build", 0.0)
                                         + times.pop("problems.state_build.pt_r", 0.0))
        out["inclusive" if key == "s" else "self"] = max(times, key=times.get)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "condgrad" / "__init__.py").is_file():
        print(f"perfbench: no condgrad sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import condgrad
    if src.resolve() not in Path(condgrad.__file__).resolve().parents:
        print(f"perfbench: condgrad was imported from {condgrad.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.build_workloads()[args.workload]
    env = environment(np)
    if env["blas_threads"] not in (None, 1):
        print(f"perfbench: BLAS runs {env['blas_threads']} threads, expected 1", file=sys.stderr)
        return 2

    setup_s = None if args.trace else workloads.time_setup(workload)
    passes = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workloads.run_pass(workload, args.seed))
        took = time.perf_counter() - t0
        if args.trace or time.perf_counter() - began + took > args.seconds:
            break

    problems = [f"{label(r)}: {r.failure}" for p in passes for r in p if r.failure]
    for k, p in enumerate(passes[1:], start=2):
        if outcome(p) != outcome(passes[0]):
            problems.append(f"pass {k} counters differ from pass 1 at the same inputs")
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failure is not None for p in passes for r in p)
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "passes": len(passes)}

    if args.trace:
        tracer = spans.Tracer()
        tracer.patch_modules()
        try:
            traced = workloads.run_pass(workload, args.seed, tracer)
        finally:
            tracer.restore()
        attempted += len(traced)
        failed += sum(r.failure is not None for r in traced)
        problems += [f"traced {label(r)}: {r.failure}" for r in traced if r.failure]
        if outcome(traced) != outcome(passes[0]):
            problems.append("the traced pass changed the solvers' counters")
        layers = tracer.layer_totals()
        untraced_s = pass_totals(passes[0])["solve_s"]
        traced_s = pass_totals(traced)["solve_s"]
        metrics = per_layer(layers, tracer.found, traced_s, untraced_s)
        report["layers"] = layer_table(layers)
        report["largest_layer"] = largest_layers(layers)
        report["runs"] = [asdict(r) for r in traced]
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.npz"
    else:
        metrics = end_to_end(passes, setup_s)
        report["runs"] = [asdict(r) for r in passes[0]]
        report["solve_s_per_pass"] = [pass_totals(p)["solve_s"] for p in passes]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["failures"] = problems

    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    if args.trace:
        np.savez(spans_path, **tracer.arrays())

    print(f"workload {workload.name}, seed {args.seed}, {len(workload.runs)} runs x "
          f"{len(passes)} pass(es){', traced' if args.trace else ''}; "
          f"{env['nproc']} CPUs, Python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} with {env['blas_threads']} thread(s)")
    if args.trace:
        print("largest layer: {inclusive} by inclusive time, {self} by self time".format(
            **report["largest_layer"]))
        for row in report["layers"]:
            print(f"  {row['layer']:<34} {row['calls']:>10} calls {row['s']:>10.4f} s "
                  f"{row['self_s']:>10.4f} s self")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": max(failed, 1 if problems else 0), "metrics": report["metrics"]}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
