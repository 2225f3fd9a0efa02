"""Steadiness report: do two sets of runs of the same code agree?

Usage, from the root of the repository::

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workload flood-1e6

Runs every workload (or the ones named) ``--runs`` times in each of two
sets, alternating between the sets, each run with its own seed and as
long as ``run_seconds`` in ``BENCHMARK.json``. For each
end-to-end metric, and for the report-only ``op_ms_p99``, it prints each
set's median and quartiles, the spread (quartile distance over median, as
``statistics.quantiles(n=4)`` gives them), and whether the two medians
agree within the metric's bound in ``BENCHMARK.json``.
``flood-1e6/setup_s`` and ``service-eval/op_ms_p99`` are the two metrics
most likely to wander and are called out at the end.
Exits 1 if any spread or median gap exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RISKY = (("flood-1e6", "setup_s"), ("service-eval", "op_ms_p99"))


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {out.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("report-only "):
            _, name, value = line.split()
            values[name] = float(value)
    return values


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    gap = (second - first) if better == "lower" else (first - second)
    return gap / first


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--base-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    sets: Dict[str, List[List[Dict[str, float]]]] = {w: [[], []] for w in workloads}
    for index in range(args.runs):
        for workload in workloads:
            for which in (0, 1) if index % 2 == 0 else (1, 0):
                seed = args.base_seed + 1000 * which + index
                sets[workload][which].append(
                    run_once(workload, seed, spec["run_seconds"])
                )
                print(f"# {workload} set {which + 1} run {index + 1}: seed {seed}",
                      file=sys.stderr, flush=True)

    ok = True
    verdicts = {}
    print(f"{'workload/metric':34s} {'set':>3s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    # op_ms_p99 is a per-layer (report-only) metric: no bound, but its
    # spread is the first thing to look at when a tail looks off.
    metrics = spec["end_to_end"] + [{"name": "op_ms_p99", "better": "lower"}]
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric.get("bound")
            medians, spreads = [], []
            for which in (0, 1):
                values = [run[name] for run in sets[workload][which]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians.append(median)
                spreads.append(spread(values))
                print(f"{workload + '/' + name:34s} {which + 1:3d} {q1:12.4f} "
                      f"{median:12.4f} {q3:12.4f} {spreads[-1]:7.3f} "
                      f"{bound if bound is not None else '-':>6}")
            gap = worse_by(medians[0], medians[1], metric["better"])
            if bound is None:
                verdicts[(workload, name)] = (
                    f"report only (set 2 worse by {gap:+.3f}; widest spread "
                    f"{max(spreads):.3f})"
                )
                print(f"{'':34s} {'':3s} {verdicts[(workload, name)]}")
                continue
            steady = max(spreads) <= bound
            agree = gap <= bound
            verdict = ("ok" if steady and agree else "FAIL") + (
                f"  (set 2 worse by {gap:+.3f}; widest spread {max(spreads):.3f}"
                f", a third of the bound is {bound / 3:.3f})"
            )
            verdicts[(workload, name)] = verdict
            ok = ok and steady and agree
            print(f"{'':34s} {'':3s} {verdict}")
    print()
    for key in RISKY:
        if key in verdicts:
            print(f"risky metric {key[0]}/{key[1]}: {verdicts[key]}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
