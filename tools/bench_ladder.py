#!/usr/bin/env python3
"""Run the hot-path benchmarks at every available kernel tier.

The perf ladder measures the fast packet engine — the 1000-client
flooded packet run, the 100k-node scale run, and the six zoo campaigns
through the detect->repair loop — once per tier (``numpy`` |
``compiled``), verifies that the tiers produce identical results
(bit-identity is promised), and prints a tier x speedup table.
Change-point detection over a large monitor rides along as a
numpy-only row: the detector scan has one implementation.

Usage::

    python tools/bench_ladder.py                 # print the table
    python tools/bench_ladder.py --output .bench_ladder.json
    python tools/bench_ladder.py --quick         # 1 round per cell (CI smoke)
    python tools/bench_ladder.py --require-compiled  # fail if degraded

``--require-compiled`` also fails when the C kernels load but a
sampler's self-check disengaged its C replay: ``choice_rows``'s replay
of numpy's ``choice``, or ``poisson_rows``'s PCG64 seeding and
exponential draws (a numpy release changed the algorithm), or the
library was built without numpy's ``libnpyrandom.a``. The report's
``sampler`` field records which path each sampler ran, as
``{"choice": "cc" | "numpy", "poisson": "cc" | "numpy"}``.

``tools/bench_snapshot.py --ladder .bench_ladder.json`` merges the
report into the next ``BENCH_<n>.json`` as its ``tiers`` block, and
``tools/bench_compare.py`` gates per-tier regressions from there (so a
compiled-tier regression cannot hide behind a numpy improvement).
Chord's per-key loop vs ``lookup_batch`` pair is measured by
``benchmarks/bench_chord.py``, not here: it is not a kernel tier.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from repro.core import SOSArchitecture
from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.perf.compiled import (
    TIERS,
    available_tiers,
    choice_sampler,
    compiled_backend,
    poisson_sampler,
)
from repro.perf.fastsim import encode_deployment, run_fast
from repro.scenarios.runner import run_scenario
from repro.scenarios.zoo import list_scenarios, load_scenario
from repro.simulation.packet_sim import PacketSimConfig, flood_layer
from repro.sos.deployment import SOSDeployment

LADDER_VERSION = 1

#: Default timing rounds per (benchmark, tier) cell; best-of is kept.
ROUNDS = 3


# ----------------------------------------------------------------------
# Benchmark definitions
# ----------------------------------------------------------------------
# Each benchmark prepares shared state once, then exposes one callable
# per supported tier returning a comparable result fingerprint; the
# ladder times the callable and asserts fingerprints agree across tiers.


def _prepare_flooded(
    clients: int,
    nodes: int,
    sos_nodes: int,
    filters: int,
    duration: float,
    flood_rate: float = 500.0,
) -> Dict[str, Any]:
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=nodes,
        sos_nodes=sos_nodes,
        filters=filters,
    )
    deployment = SOSDeployment.deploy(arch, rng=7)
    targets = flood_layer(deployment, layer=1, fraction=0.5, rng=2)
    arrays = encode_deployment(deployment)
    contacts = deployment.client_contact_matrix(
        np.random.default_rng(123), clients
    )
    return {
        "arrays": arrays,
        "targets": targets,
        "contacts": contacts,
        "clients": clients,
        "duration": duration,
        "flood_rate": flood_rate,
    }


def _run_flooded(state: Dict[str, Any], tier: str) -> Tuple[Any, ...]:
    config = PacketSimConfig(
        duration=state["duration"],
        warmup=min(5.0, state["duration"] / 4.0),
        clients=state["clients"],
        client_rate=1.0,
        flood_rate=state["flood_rate"],
        tier=tier,
    )
    report = run_fast(
        None,
        config,
        rng=1,
        flood_targets=state["targets"],
        client_contacts=state["contacts"],
        arrays=state["arrays"],
    )
    return (
        report.sent,
        report.delivered,
        report.dropped_at_congested,
        report.dropped_no_neighbor,
        report.attack_packets_absorbed,
        report.latency_count,
        report.latency_mean,
        report.latency_m2,
        report.max_latency,
        tuple(report.congested_nodes),
    )


def _prepare_detection(nodes: int, offers: int) -> Dict[str, Any]:
    rng = np.random.default_rng(3)
    node_ids = rng.integers(0, nodes, size=offers).astype(np.int64)
    times = np.sort(rng.random(offers) * 50.0).astype(np.float64)
    # Load jump after t=25 on half the nodes, so the detectors have
    # crossings to find rather than scanning flat series.
    attacked = node_ids % 2 == 0
    late = times > 25.0
    extra_nodes = node_ids[attacked & late]
    extra_times = times[attacked & late]
    node_ids = np.concatenate([node_ids, np.repeat(extra_nodes, 3)])
    times = np.concatenate([times, np.repeat(extra_times, 3)])
    accepted = np.ones(len(node_ids), dtype=bool)
    config = MonitorConfig(bin_width=0.5, warmup_bins=2, baseline_bins=8)
    return {
        "nodes": node_ids,
        "times": times,
        "accepted": accepted,
        "config": config,
    }


def _run_detection(state: Dict[str, Any]) -> Tuple[Any, ...]:
    monitor = TrafficMonitor(state["config"])
    monitor.observe_batch(state["nodes"], state["times"], state["accepted"])
    bins = monitor.detection_bins()
    return tuple(sorted(bins.items()))


def _prepare_zoo(phases: int) -> Dict[str, Any]:
    return {
        "specs": [load_scenario(name) for name in list_scenarios()],
        "phases": phases,
    }


def _run_zoo(state: Dict[str, Any], tier: str) -> Tuple[Any, ...]:
    """Every zoo campaign through detect->repair at the spec's own seed:
    per-phase delivery, flagged and repaired sets."""
    reports = [
        run_scenario(spec, mode="detected", phases=state["phases"], tier=tier)
        for spec in state["specs"]
    ]
    return tuple(
        (
            report.scenario,
            report.delivery_per_phase,
            report.flagged_per_phase,
            report.repaired_per_phase,
        )
        for report in reports
    )


def build_benchmarks(quick: bool) -> List[Dict[str, Any]]:
    """The ladder's benchmark matrix (prepared lazily, in order)."""
    flooded = dict(clients=1000, nodes=2000, sos_nodes=120, filters=8,
                   duration=50.0)
    scale = dict(clients=200, nodes=100_000, sos_nodes=3_000, filters=8,
                 duration=6.0, flood_rate=200.0)
    detection = dict(nodes=1_000, offers=50_000 if quick else 400_000)
    zoo = dict(phases=1 if quick else 3)
    if quick:
        flooded.update(clients=200, nodes=500, sos_nodes=60, duration=20.0)
        scale.update(nodes=10_000, sos_nodes=600)
    return [
        {
            "name": "flooded_packet_1000c" if not quick
            else "flooded_packet_quick",
            "prepare": lambda: _prepare_flooded(**flooded),
            "tiers": {
                tier: (lambda state, tier=tier: _run_flooded(state, tier))
                for tier in TIERS
            },
        },
        {
            "name": "detection_flagging",
            "prepare": lambda: _prepare_detection(**detection),
            "tiers": {"numpy": _run_detection},
        },
        {
            "name": "zoo_detect" if not quick else "zoo_detect_quick",
            "prepare": lambda: _prepare_zoo(**zoo),
            "tiers": {
                tier: (lambda state, tier=tier: _run_zoo(state, tier))
                for tier in TIERS
            },
        },
        {
            "name": "scale_100k_flooded" if not quick else "scale_quick",
            "prepare": lambda: _prepare_flooded(**scale),
            "tiers": {
                tier: (lambda state, tier=tier: _run_flooded(state, tier))
                for tier in TIERS
            },
        },
    ]


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


def _time_best(
    fn: Callable[[Dict[str, Any]], Tuple[Any, ...]],
    state: Dict[str, Any],
    rounds: int,
) -> Tuple[float, Tuple[Any, ...]]:
    best = float("inf")
    result: Tuple[Any, ...] = ()
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn(state)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_ladder(rounds: int, quick: bool) -> Dict[str, Any]:
    tiers_here = available_tiers()
    report: Dict[str, Any] = {
        "version": LADDER_VERSION,
        "available": list(tiers_here),
        "backend": compiled_backend(),
        "sampler": {"choice": choice_sampler(), "poisson": poisson_sampler()},
        "rounds": rounds,
        "benchmarks": {},
    }
    for bench in build_benchmarks(quick):
        state = bench["prepare"]()
        cells: Dict[str, Any] = {}
        fingerprints: Dict[str, Tuple[Any, ...]] = {}
        for tier in TIERS:
            runner = bench["tiers"].get(tier)
            if runner is None or tier not in tiers_here:
                continue
            seconds, fingerprint = _time_best(runner, state, rounds)
            cells[tier] = {"mean": seconds, "rounds": rounds}
            fingerprints[tier] = fingerprint
        if len(set(fingerprints.values())) > 1:
            raise AssertionError(
                f"{bench['name']}: tiers disagree on results — "
                "bit-identity contract violated"
            )
        baseline = cells.get("numpy")
        if baseline is not None:
            speedups = {
                tier: baseline["mean"] / cell["mean"]
                for tier, cell in cells.items()
                if tier != "numpy" and cell["mean"] > 0.0
            }
        else:
            speedups = {}
        report["benchmarks"][bench["name"]] = {
            "tiers": cells,
            "speedup_vs_numpy": speedups,
        }
    return report


def format_table(report: Dict[str, Any]) -> str:
    names = list(report["benchmarks"])
    width = max(len(name) for name in names) if names else 9
    lines = [
        "tier backend: "
        + (report["backend"] or "none (compiled tier unavailable)")
        + f"; choice sampler: {report['sampler']['choice']}"
        + f"; poisson sampler: {report['sampler']['poisson']}",
        f"{'benchmark'.ljust(width)}  "
        + "".join(f"{tier:>12}" for tier in TIERS)
        + f"{'compiled/numpy':>16}",
    ]
    for name in names:
        entry = report["benchmarks"][name]
        row = name.ljust(width) + "  "
        for tier in TIERS:
            cell = entry["tiers"].get(tier)
            row += (
                f"{cell['mean'] * 1e3:10.1f}ms" if cell else f"{'-':>12}"
            )
        speedup = entry["speedup_vs_numpy"].get("compiled")
        row += f"{speedup:15.2f}x" if speedup is not None else f"{'-':>16}"
        lines.append(row)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark hot paths at every available kernel tier"
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the ladder report JSON here (merged into BENCH_<n>."
        "json by tools/bench_snapshot.py --ladder)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=ROUNDS,
        help=f"timing rounds per cell, best-of kept (default: {ROUNDS})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink workloads to smoke-test scale (CI)",
    )
    parser.add_argument(
        "--require-compiled",
        action="store_true",
        help="exit non-zero when no compiled backend is available or "
        "either sampler's C replay is disengaged",
    )
    args = parser.parse_args(argv)

    if args.require_compiled and compiled_backend() is None:
        print(
            "bench-ladder: no compiled backend (no working C compiler) "
            "but --require-compiled was set",
            file=sys.stderr,
        )
        return 1
    if args.require_compiled and choice_sampler() != "cc":
        print(
            "bench-ladder: the C kernels load but choice_rows's self-check "
            "disengaged the C replay of Generator.choice (numpy "
            f"{np.__version__}); --require-compiled was set",
            file=sys.stderr,
        )
        return 1
    if args.require_compiled and poisson_sampler() != "cc":
        print(
            "bench-ladder: the C kernels load but poisson_rows runs its "
            "numpy loop (library built without numpy's libnpyrandom.a, or "
            "the self-check found numpy "
            f"{np.__version__}'s PCG64 seeding or exponential changed); "
            "--require-compiled was set",
            file=sys.stderr,
        )
        return 1

    rounds = 1 if args.quick and args.rounds == ROUNDS else args.rounds
    report = run_ladder(rounds, args.quick)
    print(format_table(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"bench-ladder: wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
