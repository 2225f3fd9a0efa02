"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload flood-1e6 --seed 1 --seconds 20 --trace 0

The workloads and metrics are listed in ``BENCHMARK.json``. The run first
builds the compiled kernel library into ``.bench_build/repro-cc`` (or
finds it cached there), then measures set-up in fresh worker processes
before and after running the workload in one of them for ``--seconds``. With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` every
per-layer metric, read from spans around the program's public functions.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 18, "failed": 0, "metrics": {...}}

Exits non-zero, printing no result, when the program cannot be built or
a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")

#: Set-up is measured this many times per untraced run and reported as
#: the median: once by the worker that runs the ops, and by set-up-only
#: workers, half of them before it and half after, so that the samples
#: span the whole run rather than one slow or fast stretch of the host.
SETUP_SAMPLES = 7
#: Every worker of a run must be done within this many seconds.
RUN_BUDGET_S = 170.0


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CC_CACHE"] = os.path.join(ROOT, ".bench_build", "repro-cc")
    return env


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: List[str], deadline: float) -> Tuple[Optional[float], Dict[str, Any]]:
    """Start a worker; return (seconds until READY, parsed RESULT or {})."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, env=worker_env(),
        stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    watchdog.start()
    ready: Optional[float] = None
    result: Dict[str, Any] = {}
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith(("RESULT ", "BUILD ")):
                result = json.loads(line.split(" ", 1)[1])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {code}")
    return ready, result


def run_setup(args: List[str], deadline: float) -> Tuple[float, Dict[str, Any]]:
    """Run a workload worker that must report READY."""
    ready, result = run_worker(args, deadline)
    if ready is None:
        raise WorkerFailed(f"worker {' '.join(args)} never reported READY")
    return ready, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under src/repro", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        _, build = run_worker(["build"], deadline)
        print(
            f"kernel build: backend={build['backend']} "
            f"compiled={'yes' if build['compiled'] else 'no (cached)'}"
        )
        common = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        setup_only = (SETUP_SAMPLES - 1) // 2 if not args.trace else 0
        setups = [run_setup(common + ["--setup-only"], deadline)[0]
                  for _ in range(setup_only)]
        ready, result = run_setup(common + ["--trace", str(args.trace)], deadline)
        setups.append(ready)
        setups += [run_setup(common + ["--setup-only"], deadline)[0]
                   for _ in range(setup_only)]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics["fail_ratio"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        metrics["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"perfbench: metric names {sorted(metrics)} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if not args.trace:
        print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    for problem in result["problems"]:
        print(f"failed op {problem[0]}: {problem[1]}")
    print(f"fail_ratio {failed}/{attempted}")
    print(f"ops timed: {result['samples']}"
          + (f" untraced, {result['traced_samples']} traced" if args.trace else ""))
    for entry in wanted:
        print(f"{entry['name']:28s} {metrics[entry['name']]:14.4f} {entry['unit']}")
    for name, value in result.get("report_only", {}).items():
        print(f"report-only {name} {value:.4f}")
    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
