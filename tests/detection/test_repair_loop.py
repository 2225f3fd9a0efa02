"""Detection feeds and the detect → traceback → repair loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSArchitecture
from repro.detection.feed import MonitorBackedDetector, OracleFloodDetector
from repro.detection.loop import DetectionRepairLoop
from repro.detection.marking import MarkingConfig
from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.errors import DetectionError
from repro.repair.defender import RepairingDefender
from repro.repair.policy import RepairPolicy
from repro.simulation.packet_sim import PacketSimConfig
from repro.sos.deployment import SOSDeployment

from tests.perf.event_oracle import event_engine

ARCH = SOSArchitecture(
    layers=3,
    mapping="one-to-half",
    total_overlay_nodes=400,
    sos_nodes=30,
    filters=4,
)
SIM = PacketSimConfig(
    duration=12.0, warmup=2.0, clients=6, client_rate=2.0, flood_start=4.0
)
MONITOR = MonitorConfig(bin_width=0.5, warmup_bins=4, baseline_bins=4)
POLICY = RepairPolicy(detection_probability=1.0)


def make_loop(marking=False, seed=7):
    return DetectionRepairLoop(
        ARCH,
        SIM,
        MONITOR,
        POLICY,
        marking_config=(
            MarkingConfig(probability=0.08, sources_per_target=2, path_depth=5)
            if marking
            else None
        ),
        seed=seed,
    )


class TestFeeds:
    def test_oracle_detector_scans_targets_in_membership_order(self):
        deployment = SOSDeployment.deploy(ARCH, rng=1)
        members = deployment.layer_members(1)
        feed = OracleFloodDetector([members[2], members[0]])
        detected = feed.scan(deployment, now=0.0)
        assert detected == [members[0], members[2]]
        feed.forget(members[0])
        assert feed.scan(deployment, now=1.0) == [members[2]]
        feed.retarget([members[1]])
        assert feed.scan(deployment, now=2.0) == [members[1]]

    def test_monitor_backed_detector_needs_attachment(self):
        deployment = SOSDeployment.deploy(ARCH, rng=1)
        feed = MonitorBackedDetector()
        with pytest.raises(DetectionError):
            feed.scan(deployment, now=0.0)

    def test_monitor_backed_detector_reports_flagged_members(self):
        deployment = SOSDeployment.deploy(ARCH, rng=1)
        target = deployment.layer_members(1)[0]
        monitor = TrafficMonitor(MONITOR)
        times = [2.0 + 0.5 * b + 0.1 * k for b in range(4) for k in range(3)]
        accepted = [True] * len(times)
        for b in range(8, 16):
            for k in range(60):
                times.append(0.5 * b + 0.005 * k)
                accepted.append(k % 2 == 0)
        monitor.observe_batch(
            np.full(len(times), target, dtype=np.int64),
            np.array(times, dtype=np.float64),
            np.array(accepted, dtype=np.bool_),
        )
        feed = MonitorBackedDetector()
        feed.attach(monitor)
        assert feed.scan(deployment, now=8.0) == [target]
        feed.forget(target)
        assert feed.scan(deployment, now=9.0) == []
        # Re-attaching clears forgotten state.
        feed.attach(monitor)
        assert feed.scan(deployment, now=10.0) == [target]

    def test_feeds_plug_into_defender(self):
        deployment = SOSDeployment.deploy(ARCH, rng=1)
        targets = list(deployment.layer_members(1)[:2])
        defender = RepairingDefender(
            POLICY, rng=3, detector=OracleFloodDetector(targets)
        )
        repaired = defender.scan_and_repair(deployment, knowledge=None)
        assert repaired == 2
        assert sorted(defender.last_repaired) == sorted(targets)
        # forget() was called: a second scan repairs nothing further.
        assert defender.scan_and_repair(deployment, knowledge=None) == 0
        assert defender.last_repaired == []


class TestLoop:
    def test_mode_ordering(self):
        loop = make_loop()
        results = {
            mode: loop.run(mode=mode, phases=3, flood_fraction=0.5)
            for mode in ("none", "oracle", "detected")
        }
        # Phase 0 is identical across modes (repair acts only between
        # phases and the phase streams are shared).
        first = {m: r.outcomes[0].delivery_ratio for m, r in results.items()}
        assert len(set(first.values())) == 1
        assert results["none"].total_repaired == 0
        assert results["oracle"].total_repaired >= 1
        assert results["detected"].total_repaired >= 1
        assert (
            results["oracle"].final_delivery
            >= results["none"].final_delivery - 0.02
        )
        assert (
            results["detected"].final_delivery
            >= results["none"].final_delivery - 0.02
        )

    def test_oracle_repairs_exactly_the_flooded_nodes(self):
        result = make_loop().run(mode="oracle", phases=2)
        assert set(result.outcomes[0].repaired) == set(result.initial_targets)
        assert result.outcomes[1].flooded == ()

    def test_detected_mode_reports_false_positives(self):
        result = make_loop().run(mode="detected", phases=2)
        outcome = result.outcomes[0]
        assert set(outcome.false_positives) == set(outcome.flagged) - set(
            outcome.flooded
        )
        # Every repaired node was flagged.
        assert set(outcome.repaired) <= set(outcome.flagged)

    def test_marking_collects_phase0_only(self):
        result = make_loop(marking=True).run(mode="detected", phases=2)
        assert result.collector is not None
        assert result.graph is not None
        first_phase_flood = result.outcomes[0].flooded
        assert set(result.collector.packets_per_victim) == set(
            result.graph.victims()
        )
        assert sum(result.collector.packets_per_victim.values()) > 0
        assert set(result.graph.victims()) == set(first_phase_flood)

    def test_engines_agree_on_loop_shape(self):
        loop = make_loop()
        for mode in ("oracle", "detected"):
            fast = loop.run(mode=mode, phases=2)
            with event_engine():
                event = loop.run(mode=mode, phases=2)
            assert fast.initial_targets == event.initial_targets
            assert fast.outcomes == event.outcomes

    def test_validation(self):
        with pytest.raises(DetectionError):
            DetectionRepairLoop(
                ARCH, SIM, MONITOR, RepairPolicy(detection_probability=0.0)
            )
        loop = make_loop()
        with pytest.raises(DetectionError):
            loop.run(mode="psychic")
        with pytest.raises(DetectionError):
            loop.run(phases=0)
