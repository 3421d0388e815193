#!/usr/bin/env python3
"""Run one matchentropy benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pde_reference --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from its `src/`.
The workload runs in passes until `--seconds` have elapsed.  With `--trace 0`
the last line of standard output is a JSON object with the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` it holds the per-layer metrics,
taken from spans recorded around calls into each package module.  The line
before it is the run record: versions, thread settings, seed, commit, and the
per-operation medians.  The same record and the spans of the last traced
pass are written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The load is one process with no extra threads: every BLAS/OpenMP pool gets one.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# Timed inside the child: a parent polling for a child with a timeout sleeps
# in steps of up to 50 ms, which would quantise the measurement.
IMPORT_TIMER = ("import time; start = time.perf_counter(); import matchentropy.cli; "
                "print(time.perf_counter() - start)")


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the package, as every CLI run does."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                              check=True, timeout=120, capture_output=True, text=True)
        times.append(float(done.stdout))
    return statistics.median(times[1:])  # the first import also writes bytecode caches


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_record(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
    }


def metric_block(section: str, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[section]}


def pass_wall(p) -> float:
    """Time of one pass: its operations only, not the benchmark's own checks."""
    return sum(p.times.values())


def per_layer(tracing, plain, traced, memory_pass, record, workload_name):
    """Per-layer values of a traced run, and whether its work counters repeated exactly."""
    layers = [tracing.layer_metrics(spans, p.facts) for p, spans in traced]
    memory = tracing.layer_metrics(memory_pass[1], memory_pass[0].facts)
    counters = [{name: m[name] for name in tracing.COUNTERS} for m in [memory, *layers]]
    repeated = all(c == counters[0] for c in counters)
    if not repeated:
        print(f"gate failed: work counters differ between traced passes: {counters}",
              file=sys.stderr)
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for kind in ("early", "full"):
        name = f"montecarlo.peak_traced_mb.{kind}"
        values[name] = memory[name]
    values["trace.overhead_s"] = (statistics.median(pass_wall(p) for p, _ in traced)
                                  - statistics.median(pass_wall(p) for p in plain))
    record["traced_passes"] = len(traced)
    record["counters"] = counters[0]
    spans = traced[-1][1]
    origin = spans[0][1] if spans else 0.0
    (OUT / f"spans-{workload_name}.json").write_text(json.dumps(
        [[name, start - origin, end - origin, parent] for name, start, end, parent, _ in spans]))
    return values, repeated


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matchentropy" / "__init__.py").is_file():
        print(f"error: no matchentropy package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    setup_s = None if args.trace else measure_setup()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    # Traced runs take memory peaks from a pass of their own, then alternate
    # plain and traced passes, at least two traced, so counters can be compared.
    memory_pass = (workloads.measure_pass(workload, tracing.Tracer(memory=True))
                   if args.trace else None)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(workloads.measure_pass(workload)[0])
        if tracer is not None:
            traced.append(workloads.measure_pass(workload, tracer))
        if time.perf_counter() - start >= args.seconds and (tracer is None or len(traced) >= 2):
            break

    passes = plain + [p for p, _ in traced] + ([memory_pass[0]] if memory_pass else [])
    attempted = len(workload.ops) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    for p in passes:
        for message in p.messages:
            print(f"gate failed: {message}", file=sys.stderr)

    wall = [pass_wall(p) for p in plain]
    record = run_record(args)
    record["pass_wall_s"] = wall
    record["op_median_s"] = {op: statistics.median(p.times.get(op, 0.0) for p in plain)
                             for op in workload.ops}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        values, repeated = per_layer(tracing, plain, traced, memory_pass, record, args.workload)
        attempted += 1
        failed += not repeated
        section = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(wall),
            "work_per_s": statistics.median(workload.work(p) / w for p, w in zip(plain, wall)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"

    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metric_block(section, values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
