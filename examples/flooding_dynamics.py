#!/usr/bin/env python
"""Packet-level congestion dynamics: what 'congested' actually means.

Run:
    python examples/flooding_dynamics.py

The analytical model treats congestion as a binary node state. This example
grounds it: legitimate clients emit Poisson traffic through a deployed SOS
overlay while an attacker floods a growing fraction of the beacon layer.
Every node has finite capacity (token bucket); flooded nodes drop most
traffic, and delivery degrades exactly as the binary model predicts once
the flood saturates node capacity.

Runs on the library's packet engine (see ``repro.perf.fastsim``).
"""

from __future__ import annotations

from repro.core import SOSArchitecture
from repro.simulation import PacketLevelSimulation, PacketSimConfig, flood_layer
from repro.sos import SOSDeployment
from repro.utils.ascii_plot import ascii_plot
from repro.utils.tables import format_table


def main() -> None:
    architecture = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=500,
        sos_nodes=45,
        filters=5,
    )
    config = PacketSimConfig(duration=40.0, warmup=5.0, clients=6)

    fractions = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    rows = []
    ratios = []
    for fraction in fractions:
        deployment = SOSDeployment.deploy(architecture, rng=7)
        simulation = PacketLevelSimulation(deployment, config, rng=1)
        targets = (
            flood_layer(deployment, layer=2, fraction=fraction, rng=2)
            if fraction > 0
            else []
        )
        report = simulation.run(flood_targets=targets)
        rows.append(
            [
                fraction,
                len(targets),
                report.sent,
                report.delivered,
                report.delivery_ratio,
                report.mean_latency,
                len(report.congested_nodes),
            ]
        )
        ratios.append(report.delivery_ratio)

    print(
        format_table(
            [
                "flooded fraction",
                "targets",
                "sent",
                "delivered",
                "delivery ratio",
                "mean latency",
                "congested nodes",
            ],
            rows,
            title="Flooding the beacon layer (layer 2) at increasing "
            "intensity (fast engine)\n",
        )
    )
    print(
        ascii_plot(
            list(fractions),
            {"delivery ratio": ratios},
            title="Delivery ratio vs flooded fraction of layer 2",
            xlabel="flooded fraction",
            ylabel="ratio",
            y_min=0.0,
            y_max=1.0,
        )
    )
    print(
        "Partial floods are routed around (nodes retry within their\n"
        "neighbor tables); once the whole layer is flooded no retry helps —\n"
        "the binary 'congested' abstraction of the analytical model."
    )


if __name__ == "__main__":
    main()
