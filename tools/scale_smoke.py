#!/usr/bin/env python3
"""Scale smoke test: large-N flooded fastsim + batched Chord lookups.

Deploys one SOS instance over an ``--nodes``-node overlay (default 10⁵),
floods a fraction of layer 1, runs the vectorized packet engine over the
struct-of-arrays encoding, then pushes ``--lookups`` batched Chord
lookups (default 10⁴) through the deployment's ring — all under one
wall-clock budget. Per-phase timings and the process memory high-water
mark land in a JSON artifact (CI uploads it from the ``bench-smoke``
job), so the scale path the array core exists for is exercised on every
PR, not just when someone remembers to run a million-node experiment.

Usage::

    PYTHONPATH=src python tools/scale_smoke.py --output scale-smoke.json
    PYTHONPATH=src python tools/scale_smoke.py --nodes 1000000 --budget 900

Exit status is non-zero when the wall budget is exceeded (or a phase
fails), which is what the CI step keys on.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import List, Optional


def peak_rss_kb() -> int:
    """Process peak resident set in kB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_scale_smoke(
    nodes: int,
    sos_nodes: int,
    lookups: int,
    clients: int,
    flood_fraction: float,
    seed: int,
) -> dict:
    """Run the deploy → flooded fastsim → Chord phases; returns the report."""
    import numpy as np

    from repro.core import SOSArchitecture
    from repro.perf.fastsim import encode_deployment, run_fast
    from repro.simulation.packet_sim import PacketSimConfig, flood_layer
    from repro.sos.deployment import SOSDeployment
    from repro.utils.seeding import make_rng

    rng = make_rng(seed)
    phases: dict = {}

    start = time.perf_counter()
    architecture = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=nodes,
        sos_nodes=sos_nodes,
    )
    deployment = SOSDeployment.deploy(architecture, rng=rng)
    phases["deploy"] = {
        "seconds": time.perf_counter() - start,
        "nodes": nodes,
        "sos_nodes": sos_nodes,
    }

    start = time.perf_counter()
    arrays = encode_deployment(deployment)
    phases["encode"] = {
        "seconds": time.perf_counter() - start,
        "slots": int(len(arrays.node_ids)),
    }

    config = PacketSimConfig(
        clients=clients,
        duration=6.0,
        warmup=1.0,
        flood_start=2.0,
        client_rate=5.0,
        flood_rate=200.0,
    )
    start = time.perf_counter()
    targets = flood_layer(deployment, 1, flood_fraction, rng=rng)
    report = run_fast(deployment, config, rng=rng, flood_targets=targets)
    phases["flooded_fastsim"] = {
        "seconds": time.perf_counter() - start,
        "flood_targets": len(targets),
        "sent": report.sent,
        "delivered": report.delivered,
        "delivery_ratio": report.delivery_ratio,
        "attack_packets_absorbed": report.attack_packets_absorbed,
    }

    start = time.perf_counter()
    ring = deployment.chord
    live = np.asarray(ring.live_node_ids, dtype=np.int64)
    keys = rng.integers(0, ring.space.size, size=lookups)
    starts = live[rng.integers(0, len(live), size=lookups)]
    batch = ring.lookup_batch(keys, starts)
    phases["chord_lookup_batch"] = {
        "seconds": time.perf_counter() - start,
        "lookups": lookups,
        "succeeded": int(batch.succeeded.sum()),
        "mean_hops": float(batch.hops.mean()),
    }

    return {"phases": phases}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Large-N flooded fastsim + Chord smoke under a wall budget"
    )
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--sos-nodes", type=int, default=3_000)
    parser.add_argument("--lookups", type=int, default=10_000)
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--flood-fraction", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=20040326)
    parser.add_argument(
        "--budget",
        type=float,
        default=300.0,
        help="wall-clock budget in seconds (exceeding it fails the run)",
    )
    parser.add_argument("--output", default=None, help="JSON artifact path")
    args = parser.parse_args(argv)

    wall_start = time.perf_counter()
    result = run_scale_smoke(
        nodes=args.nodes,
        sos_nodes=args.sos_nodes,
        lookups=args.lookups,
        clients=args.clients,
        flood_fraction=args.flood_fraction,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - wall_start
    result.update(
        {
            "nodes": args.nodes,
            "sos_nodes": args.sos_nodes,
            "wall_seconds": elapsed,
            "budget_seconds": args.budget,
            "peak_rss_kb": peak_rss_kb(),
            "within_budget": elapsed <= args.budget,
        }
    )

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")

    for name, phase in result["phases"].items():
        print(f"scale-smoke: {name}: {phase['seconds']:.2f}s")
    print(
        f"scale-smoke: N={args.nodes} wall={elapsed:.1f}s "
        f"(budget {args.budget:.0f}s) peak_rss={peak_rss_kb() / 1024:.0f}MB"
    )
    if not result["within_budget"]:
        print("scale-smoke: FAILED — wall budget exceeded", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
