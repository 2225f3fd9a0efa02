"""Detection instruments: the packet engine vs the event-driven oracle.

* **Marking is bit-identical everywhere.** Mark uniforms come from
  dedicated per-target streams that both spawn and consume in the same
  order, independent of routing.
* **Monitor counters are bit-identical everywhere.** The engine routes
  at the fixed point of the causal event order, so every offer stream —
  flooded layers and downstream alike — equals the oracle's, and so do
  the per-bin counters and the flagged sets.
* **Disabled detection changes nothing.** Attaching no monitor/marking
  spawns no extra stream and draws nothing, so reports are
  bit-identical to a detection-free simulation — including with
  ``flood_start`` left at its 0.0 default.
"""

from __future__ import annotations

import dataclasses
import functools
import math


from repro.core import SOSArchitecture
from repro.detection.marking import MarkCollector, MarkingConfig, build_attack_graph
from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment

from tests.perf.event_oracle import EventPacketSimulation

MONITOR = MonitorConfig(bin_width=0.5, warmup_bins=4, baseline_bins=4)
MARKING = MarkingConfig(probability=0.08, sources_per_target=2, path_depth=5)
CONFIG = PacketSimConfig(
    duration=12.0, warmup=2.0, clients=6, client_rate=2.0, flood_start=4.0
)


def deployment(seed=11):
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=400,
        sos_nodes=30,
        filters=4,
    )
    return SOSDeployment.deploy(arch, rng=seed)


def instrumented_run(config, seed, targets, engine, marking=True):
    return _instrumented_run(
        config, seed, tuple(targets or ()), engine, marking
    )


@functools.lru_cache(maxsize=None)
def _instrumented_run(config, seed, targets, engine, marking):
    # Several tests compare the same flooded seeds; each run is computed
    # once per session and only read afterwards.
    dep = deployment()
    monitor = TrafficMonitor(MONITOR)
    collector = None
    if marking and targets:
        graph = build_attack_graph(list(targets), MARKING)
        collector = MarkCollector(graph, MARKING)
    sim = engine(dep, config, rng=seed, monitor=monitor, marking=collector)
    report = sim.run(flood_targets=list(targets))
    return monitor, collector, report


class TestMarkingBitIdentity:
    def test_flooded_mark_tallies_identical(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for seed in range(5):
            _, event_marks, event = instrumented_run(
                CONFIG, seed, targets, engine=EventPacketSimulation
            )
            _, fast_marks, fast = instrumented_run(
                CONFIG, seed, targets, engine=PacketLevelSimulation
            )
            assert dataclasses.asdict(event) == dataclasses.asdict(fast)
            assert event_marks.packets_per_victim == fast_marks.packets_per_victim
            for victim in targets:
                assert event_marks.marks_for(victim) == fast_marks.marks_for(
                    victim
                )

    def test_mark_draws_do_not_perturb_the_simulation(self):
        # Same seed, marking on vs off: the report must not change by a
        # bit, because mark uniforms come from a dedicated spawned
        # stream, never from the flood/routing/arrival streams.
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for engine in (EventPacketSimulation, PacketLevelSimulation):
            _, _, with_marks = instrumented_run(
                CONFIG, 0, targets, engine=engine, marking=True
            )
            _, _, without = instrumented_run(
                CONFIG, 0, targets, engine=engine, marking=False
            )
            assert dataclasses.asdict(with_marks) == dataclasses.asdict(without)


class TestMonitorEquivalence:
    def test_unflooded_monitor_state_identical(self):
        for seed in range(3):
            event_monitor, _, event = instrumented_run(
                CONFIG, seed, None, engine=EventPacketSimulation
            )
            fast_monitor, _, fast = instrumented_run(
                CONFIG, seed, None, engine=PacketLevelSimulation
            )
            assert event.delivery_ratio == 1.0
            assert dataclasses.asdict(event) == dataclasses.asdict(fast)
            assert event_monitor.snapshot() == fast_monitor.snapshot()
            assert event_monitor.observations == fast_monitor.observations

    def test_flooded_layer1_counters_identical(self):
        # Every layer's counters match, the flooded one included.
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for seed in range(3):
            event_monitor, _, _ = instrumented_run(
                CONFIG, seed, targets, engine=EventPacketSimulation
            )
            fast_monitor, _, _ = instrumented_run(
                CONFIG, seed, targets, engine=PacketLevelSimulation
            )
            assert event_monitor.snapshot() == fast_monitor.snapshot()
            assert event_monitor.observations == fast_monitor.observations

    def test_flooded_flags_agree_statistically(self):
        # Historical name; the flagged sets are now equal, not just close.
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for seed in range(5):
            event_monitor, _, _ = instrumented_run(
                CONFIG, seed, targets, engine=EventPacketSimulation
            )
            fast_monitor, _, _ = instrumented_run(
                CONFIG, seed, targets, engine=PacketLevelSimulation
            )
            assert set(targets) <= set(fast_monitor.flagged_nodes())
            assert fast_monitor.flagged_nodes() == event_monitor.flagged_nodes()

    def test_monitor_attachment_does_not_perturb_reports(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for engine in (EventPacketSimulation, PacketLevelSimulation):
            _, _, monitored = instrumented_run(
                CONFIG, 1, targets, engine=engine, marking=False
            )
            bare = engine(deployment(), CONFIG, rng=1).run(flood_targets=targets)
            assert dataclasses.asdict(monitored) == dataclasses.asdict(bare)


class TestDisabledDetectionChangesNothing:
    # flood_start was added alongside the detection hooks; its 0.0
    # default must reproduce the pre-detection flood schedule exactly
    # (0.0 + gap == gap bitwise), on the engine and the oracle.
    def test_flood_start_zero_matches_historical_defaults(self):
        legacy = PacketSimConfig(
            duration=12.0, warmup=2.0, clients=6, client_rate=2.0
        )
        assert legacy.flood_start == 0.0
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for engine in (EventPacketSimulation, PacketLevelSimulation):
            report = engine(deployment(), legacy, rng=2).run(
                flood_targets=targets
            )
            assert report.attack_packets_absorbed > 0

    def test_engines_still_bit_identical_when_undropped(self):
        legacy = PacketSimConfig(
            duration=8.0, warmup=5.0, clients=1, client_rate=0.4
        )
        for seed in range(10):
            event = EventPacketSimulation(deployment(), legacy, rng=seed).run()
            fast = PacketLevelSimulation(deployment(), legacy, rng=seed).run()
            assert dataclasses.asdict(event) == dataclasses.asdict(fast)

    def test_flood_start_delays_absorption(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        early = PacketLevelSimulation(deployment(), CONFIG, rng=5).run(
            flood_targets=targets
        )
        late_config = dataclasses.replace(CONFIG, flood_start=10.0)
        late = PacketLevelSimulation(deployment(), late_config, rng=5).run(
            flood_targets=targets
        )
        # Starting 6 time units later sheds roughly that share of the
        # flood packets.
        expected = (CONFIG.duration - late_config.flood_start) / (
            CONFIG.duration - CONFIG.flood_start
        )
        ratio = late.attack_packets_absorbed / early.attack_packets_absorbed
        assert math.isclose(ratio, expected, rel_tol=0.05)


class TestMonitorEngineEquivalenceStatistical:
    # Historical names; the offer mass is now equal seed by seed.
    def test_total_offer_mass_close(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for seed in range(8):
            event_monitor, _, _ = instrumented_run(
                CONFIG, seed, targets, engine=EventPacketSimulation
            )
            fast_monitor, _, _ = instrumented_run(
                CONFIG, seed, targets, engine=PacketLevelSimulation
            )
            assert fast_monitor.observations == event_monitor.observations
