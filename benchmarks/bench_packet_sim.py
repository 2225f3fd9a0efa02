"""Packet engine vs the event-driven oracle on a large flooded run.

A 1000-client flooded run (half the entry layer under attack, ~45k
legitimate packets, ~1.1M attack packets) must be >= 10x faster on the
library's hop-synchronous engine than on the event-driven oracle from
``tests/perf/event_oracle.py``, while reproducing the oracle's report
bit for bit.
"""

from __future__ import annotations

import dataclasses
import time

from repro.core import SOSArchitecture
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment
from tests.perf.event_oracle import EventPacketSimulation

ARCH = SOSArchitecture(
    layers=3,
    mapping="one-to-half",
    total_overlay_nodes=2000,
    sos_nodes=120,
    filters=8,
)
CONFIG = PacketSimConfig(
    duration=50.0, warmup=5.0, clients=1000, client_rate=1.0
)
SEED = 1


def _run(fast: bool):
    deployment = SOSDeployment.deploy(ARCH, rng=7)
    targets = flood_layer(deployment, layer=1, fraction=0.5, rng=2)
    engine = PacketLevelSimulation if fast else EventPacketSimulation
    simulation = engine(deployment, CONFIG, rng=SEED)
    return simulation.run(flood_targets=targets)


def test_flooded_1000_clients_fast(benchmark):
    report = benchmark.pedantic(_run, args=(True,), rounds=1, iterations=1)
    assert report.sent > 40_000
    assert 0.0 < report.delivery_ratio < 1.0


def test_flooded_1000_clients_event(benchmark):
    report = benchmark.pedantic(_run, args=(False,), rounds=1, iterations=1)
    assert report.sent > 40_000
    assert 0.0 < report.delivery_ratio < 1.0


def test_fast_speedup_at_least_10x():
    start = time.perf_counter()
    fast = _run(True)
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    event = _run(False)
    event_seconds = time.perf_counter() - start

    # Shared sub-streams and fixed-point routing: the whole report
    # must agree exactly, the injection schedule included.
    assert fast.sent == event.sent
    assert fast.attack_packets_absorbed == event.attack_packets_absorbed
    assert dataclasses.asdict(fast) == dataclasses.asdict(event)
    speedup = event_seconds / fast_seconds
    assert speedup >= 10.0, (
        f"fast engine speedup {speedup:.1f}x below the 10x criterion "
        f"(event {event_seconds:.2f}s, fast {fast_seconds:.2f}s)"
    )
