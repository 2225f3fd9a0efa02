"""Tests for the fault plan, injector, and round-churn adapter."""

from __future__ import annotations

import math

import pytest

from repro.core import SOSArchitecture
from repro.errors import SimulationError
from repro.overlay.node import NodeHealth
from repro.resilience.faults import (
    ZERO_CHURN,
    FaultInjector,
    FaultPlan,
    PartitionEvent,
    RoundChurn,
    compose_round_hooks,
)
from repro.simulation.engine import EventScheduler
from repro.sos.deployment import SOSDeployment


def deployment(seed=3):
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-two",
        total_overlay_nodes=300,
        sos_nodes=30,
        filters=3,
    )
    return SOSDeployment.deploy(arch, rng=seed)


def crashed_counts(dep):
    """Per-layer count of benignly crashed members, filters included."""
    return {
        layer: sum(
            dep.resolve(node_id).health is NodeHealth.CRASHED
            for node_id in dep.layer_members(layer)
        )
        for layer in range(1, dep.architecture.layers + 2)
    }


class TestFaultPlan:
    def test_zero_churn_is_noop(self):
        assert ZERO_CHURN.is_noop

    def test_partitions_make_plan_live(self):
        plan = FaultPlan(
            partitions=(PartitionEvent(time=1.0, layer=1, fraction=0.5, duration=2.0),)
        )
        assert not plan.is_noop

    def test_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan(crash_rate=-1.0)
        with pytest.raises(SimulationError):
            FaultPlan(mean_downtime=0.0)
        with pytest.raises(SimulationError):
            PartitionEvent(time=-1.0, layer=1, fraction=0.5, duration=1.0)
        with pytest.raises(SimulationError):
            PartitionEvent(time=0.0, layer=1, fraction=0.5, duration=0.0)


class TestNodeCrashSemantics:
    def test_crash_only_hits_good_nodes(self):
        dep = deployment()
        node = dep.resolve(dep.sos_member_ids()[0])
        node.compromise()
        assert node.crash() is False
        assert node.health is NodeHealth.COMPROMISED

    def test_restore_never_undoes_attack_damage(self):
        dep = deployment()
        node = dep.resolve(dep.sos_member_ids()[0])
        node.congest()
        assert node.restore() is False
        assert node.health is NodeHealth.CONGESTED

    def test_crash_then_restore_roundtrip(self):
        dep = deployment()
        node = dep.resolve(dep.sos_member_ids()[0])
        assert node.crash() is True
        assert node.health is NodeHealth.CRASHED
        assert node.is_bad and not node.is_good
        assert node.restore() is True
        assert node.is_good


class TestFaultInjector:
    def test_noop_plan_schedules_nothing(self):
        scheduler = EventScheduler()
        injector = FaultInjector(ZERO_CHURN, deployment(), scheduler, rng=1)
        assert injector.install(horizon=100.0) == 0
        assert scheduler.pending == 0

    def test_churn_crashes_and_recovers(self):
        dep = deployment()
        scheduler = EventScheduler()
        injector = FaultInjector(
            FaultPlan(crash_rate=0.5, mean_downtime=5.0), dep, scheduler, rng=7
        )
        assert injector.install(horizon=100.0) > 0
        scheduler.run()
        assert injector.crashes_injected > 0
        assert injector.recoveries > 0

    def test_permanent_crashes_never_recover(self):
        dep = deployment()
        scheduler = EventScheduler()
        injector = FaultInjector(
            FaultPlan(crash_rate=0.5, mean_downtime=math.inf),
            dep,
            scheduler,
            rng=7,
        )
        injector.install(horizon=50.0)
        scheduler.run()
        assert injector.crashes_injected > 0
        assert injector.recoveries == 0
        assert sum(crashed_counts(dep).values()) == injector.crashes_injected

    def test_partition_crashes_layer_then_heals(self):
        dep = deployment()
        scheduler = EventScheduler()
        plan = FaultPlan(
            partitions=(
                PartitionEvent(time=1.0, layer=2, fraction=1.0, duration=3.0),
            )
        )
        injector = FaultInjector(plan, dep, scheduler, rng=7)
        injector.install(horizon=10.0)
        scheduler.run(until=2.0)
        layer_size = len(dep.layer_members(2))
        assert crashed_counts(dep)[2] == layer_size
        scheduler.run()
        assert crashed_counts(dep)[2] == 0
        assert injector.recoveries == layer_size

    def test_recover_before_crash_race_is_cancelled(self):
        """A stale recover must not resurrect a later crash early."""
        dep = deployment()
        scheduler = EventScheduler()
        injector = FaultInjector(
            FaultPlan(crash_rate=0.1, mean_downtime=5.0), dep, scheduler, rng=7
        )
        node_id = dep.sos_member_ids()[0]
        node = dep.resolve(node_id)

        scheduler.schedule_at(1.0, lambda: injector._crash(node_id))
        scheduler.run(until=1.0)
        stale_recover = injector._pending_recover[node_id]
        assert not stale_recover.cancelled

        # The defender repairs the node between the crash and its
        # scheduled benign recovery, then the node crashes again.
        node.recover()
        scheduler.schedule_at(1.5, lambda: injector._crash(node_id))
        scheduler.run(until=1.5)
        assert stale_recover.cancelled
        fresh_recover = injector._pending_recover[node_id]
        assert fresh_recover is not stale_recover

        scheduler.run()
        assert node.is_good
        # Only the fresh recovery fired; the cancelled one was skipped.
        assert injector.recoveries == 1

    def test_deterministic_under_seed(self):
        reports = []
        for _ in range(2):
            dep = deployment(seed=5)
            scheduler = EventScheduler()
            injector = FaultInjector(
                FaultPlan(crash_rate=0.3, mean_downtime=4.0),
                dep,
                scheduler,
                rng=11,
            )
            injector.install(horizon=60.0)
            scheduler.run()
            reports.append(
                (injector.crashes_injected, injector.recoveries, crashed_counts(dep))
            )
        assert reports[0] == reports[1]


class TestRoundChurn:
    def test_crashes_members_per_round(self):
        dep = deployment()
        churn = RoundChurn(crash_probability=1.0, rng=3)
        churn(dep, None, 1)
        assert churn.crashes_injected == len(dep.sos_member_ids())

    def test_recovery_probability(self):
        dep = deployment()
        churn = RoundChurn(crash_probability=1.0, recover_probability=1.0, rng=3)
        churn(dep, None, 1)  # everyone crashes
        churn(dep, None, 2)  # everyone recovers
        assert churn.recoveries == len(dep.sos_member_ids())
        assert sum(crashed_counts(dep).values()) == 0


class TestComposeRoundHooks:
    def test_none_hooks_collapse_to_none(self):
        assert compose_round_hooks(None, None) is None

    def test_single_hook_passes_through(self):
        hook = lambda *a: None  # noqa: E731
        assert compose_round_hooks(None, hook) is hook

    def test_chained_hooks_run_in_order(self):
        calls = []
        first = lambda d, k, r: calls.append(("first", r))  # noqa: E731
        second = lambda d, k, r: calls.append(("second", r))  # noqa: E731
        chained = compose_round_hooks(first, second)
        chained("dep", "knowledge", 4)
        assert calls == [("first", 4), ("second", 4)]
