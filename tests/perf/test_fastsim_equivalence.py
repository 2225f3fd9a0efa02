"""Packet engine vs the event-driven oracle: identity, not statistics.

The engine (:func:`repro.perf.fastsim.run_fast`) iterates its routing to
the fixed point of the causal event order, so every run — flooded or
not, on either kernel tier — must reproduce the oracle in
``tests/perf/event_oracle.py`` field for field: ``sent``, deliveries,
drops per cause and per layer, latency statistics and the congested-node
set. The one exception is simultaneous events (see
:class:`TestForcedTies`), which the two order differently by design.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.core import SOSArchitecture
from repro.errors import SimulationError
from repro.perf.fastsim import (
    encode_deployment,
    mean_delivery_ratio,
    run_packet_replicas,
)
from repro.perf import compiled
from repro.scenarios.schedule import InjectionSchedule
from repro.scenarios.vectors import SurgeSource
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment

from tests.perf.event_oracle import EventPacketSimulation

TIERS = ("numpy", "compiled")


def deployment(seed=11):
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=400,
        sos_nodes=30,
        filters=4,
    )
    return SOSDeployment.deploy(arch, rng=seed)


def run_both(config, seed, targets=None, dep=None, schedule=None):
    dep = deployment() if dep is None else dep
    event = EventPacketSimulation(dep, config, rng=seed).run(
        flood_targets=targets, schedule=schedule
    )
    fast = PacketLevelSimulation(dep, config, rng=seed).run(
        flood_targets=targets, schedule=schedule
    )
    return event, fast


class TestDegenerateBitIdentity:
    # At most one packet is ever in flight.
    CONFIG = PacketSimConfig(
        duration=8.0, warmup=5.0, clients=1, client_rate=0.4
    )

    @pytest.mark.parametrize("seed", range(30))
    def test_single_packet_reports_identical(self, seed):
        event, fast = run_both(self.CONFIG, seed)
        assert dataclasses.asdict(event) == dataclasses.asdict(fast)

    def test_single_packet_with_flood_identical(self):
        dep = deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
        for seed in range(10):
            event, fast = run_both(self.CONFIG, seed, targets, dep)
            assert dataclasses.asdict(event) == dataclasses.asdict(fast)


LAYER_ONE_FLOOD = PacketSimConfig(
    duration=12.0, warmup=2.0, clients=6, client_rate=2.0
)


@functools.lru_cache(maxsize=None)
def flooded_pair(seed):
    """``(targets, (event, fast))`` for half of layer 1 flooded under
    :data:`LAYER_ONE_FLOOD`; several tests read the same seeds, so each
    is run once per session."""
    dep = deployment()
    targets = flood_layer(dep, layer=1, fraction=0.5, rng=3)
    return targets, run_both(LAYER_ONE_FLOOD, seed, targets, dep)


class TestStatisticalEquivalence:
    # The class keeps its historical name; since routing is iterated to
    # its fixed point, every assertion here is exact equality.
    CONFIG = LAYER_ONE_FLOOD
    SEEDS = range(40)

    def test_healthy_runs_match_exactly(self):
        for seed in (0, 1, 2):
            event, fast = run_both(self.CONFIG, seed)
            assert event.delivery_ratio == 1.0
            assert dataclasses.asdict(event) == dataclasses.asdict(fast)

    def test_flooded_delivery_ratio_within_ci(self):
        for seed in self.SEEDS:
            _, (event, fast) = flooded_pair(seed)
            assert dataclasses.asdict(event) == dataclasses.asdict(fast)

    def test_flooded_drop_structure_matches(self):
        for seed in range(10):
            _, (event, fast) = flooded_pair(seed)
            assert fast.drops_per_layer == event.drops_per_layer
            assert fast.arrivals_per_layer == event.arrivals_per_layer
            drops = fast.drops_per_layer
            assert max(drops, key=drops.get) == 1

    def test_congested_node_sets_agree(self):
        targets, (event, fast) = flooded_pair(0)
        assert fast.congested_nodes == event.congested_nodes
        assert set(targets) <= set(fast.congested_nodes)


# ----------------------------------------------------------------------
# Stress sweep: random flooded configs around the congestion threshold
# ----------------------------------------------------------------------

STRESS_MAPPINGS = ("one-to-two", "one-to-two", "one-to-half", 3)


def stress_case(index):
    """Seeded random flooded config whose legitimate load sits at 0.8-1.6x
    a layer's capacity, so next-layer congestion hinges on routing."""
    rng = np.random.default_rng([20261017, index])
    layers = int(rng.integers(2, 5))
    mapping = STRESS_MAPPINGS[int(rng.integers(len(STRESS_MAPPINGS)))]
    sos = int(rng.integers(4, 9)) * layers
    arch = SOSArchitecture(
        layers=layers,
        mapping=mapping,
        total_overlay_nodes=300,
        sos_nodes=sos,
        filters=int(rng.integers(3, 6)),
    )
    capacity = float(rng.choice([10.0, 20.0, 40.0]))
    load = float(rng.uniform(0.8, 1.6))
    clients = int(rng.integers(4, 21))
    config = PacketSimConfig(
        duration=6.0,
        warmup=1.0,
        clients=clients,
        client_rate=load * capacity * (sos / layers) / clients,
        node_capacity=capacity,
        hop_latency=float(rng.choice([0.01, 0.02, 0.05])),
        flood_rate=capacity * float(rng.choice([1.5, 3.0, 6.0])),
        flood_start=float(rng.choice([0.0, 2.0])),
    )
    flooded_layer = int(rng.integers(1, layers + 2))
    fraction = float(rng.choice([0.25, 0.5]))
    dep = SOSDeployment.deploy(arch, rng=int(rng.integers(1 << 30)))
    targets = flood_layer(
        dep, flooded_layer, fraction, rng=int(rng.integers(1 << 30))
    )
    return dep, config, targets, int(rng.integers(1 << 30))


def monitored(engine, dep, config, seed, targets):
    from repro.detection.monitor import MonitorConfig, TrafficMonitor

    monitor = TrafficMonitor(MonitorConfig(bin_width=0.5, warmup_bins=2))
    report = engine(dep, config, rng=seed, monitor=monitor).run(
        flood_targets=targets
    )
    return report, monitor


class TestStressSweep:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("index", range(16))
    def test_flooded_config_identical(self, index, tier):
        dep, config, targets, seed = stress_case(index)
        config = dataclasses.replace(config, tier=tier)
        event, event_monitor = monitored(
            EventPacketSimulation, dep, config, seed, targets
        )
        fast, fast_monitor = monitored(
            PacketLevelSimulation, dep, config, seed, targets
        )
        assert event.dropped_at_congested + event.dropped_no_neighbor > 0
        assert dataclasses.asdict(fast) == dataclasses.asdict(event)
        assert fast_monitor.snapshot() == event_monitor.snapshot()
        assert fast_monitor.observations == event_monitor.observations
        assert fast_monitor.flagged_nodes() == event_monitor.flagged_nodes()


class TestCascadeTail:
    """A dense legitimate cascade: next-layer nodes hover at the 50% drop
    threshold, so the last layer's routes take hundreds of refinements
    to settle. Slow on the numpy tier, but exact."""

    ARCH = SOSArchitecture(
        layers=4,
        mapping="one-to-two",
        total_overlay_nodes=300,
        sos_nodes=28,
        filters=4,
    )
    CONFIG = PacketSimConfig(
        duration=12.0,
        warmup=1.0,
        clients=12,
        client_rate=1.15 * 20.0 * (28 / 4) / 12,  # 1.15x a layer's capacity
        node_capacity=20.0,
        hop_latency=0.01,
        flood_rate=60.0,
    )

    @staticmethod
    def count_refinements(monkeypatch, kernels_cls):
        calls = []
        route = kernels_cls.route

        def counting(self, *args):
            calls.append(1)
            return route(self, *args)

        monkeypatch.setattr(kernels_cls, "route", counting)
        return calls

    @pytest.mark.parametrize("tier", TIERS)
    def test_many_refinements_still_identical(self, tier, monkeypatch):
        dep = SOSDeployment.deploy(self.ARCH, rng=15)
        targets = flood_layer(dep, 5, 0.25, rng=15)
        config = dataclasses.replace(self.CONFIG, tier=tier)
        kernels_cls = type(compiled.get_kernels(compiled.resolve_tier(tier)))
        calls = self.count_refinements(monkeypatch, kernels_cls)
        event, fast = run_both(config, 15, targets, dep)
        # Four layer-rounds; all but a handful of the route calls are
        # refinements of the last one.
        assert len(calls) > 100
        assert dataclasses.asdict(fast) == dataclasses.asdict(event)


class TestRouteCalls:
    """Each layer's routing stops calling ``route`` once a table would
    route as the last one did: one call when the next layer never
    congests, the refinement loop when arrivals move its flips."""

    CONFIG = PacketSimConfig(
        duration=90.0,
        warmup=0.0,
        clients=4,
        client_rate=0.2,
        node_capacity=1.0,
        hop_latency=0.01,
    )

    @staticmethod
    def spy(monkeypatch, tier, dep):
        """Record the layer of every ``route`` call (by its table)."""
        kernels_cls = type(compiled.get_kernels(compiled.resolve_tier(tier)))
        layer_of = {
            id(table): layer
            for layer, table in encode_deployment(dep).neighbors.items()
        }
        calls = []
        route = kernels_cls.route

        def spying(self, u, rows, neighbor_table, *rest):
            calls.append(layer_of[id(neighbor_table)])
            return route(self, u, rows, neighbor_table, *rest)

        monkeypatch.setattr(kernels_cls, "route", spying)
        return calls

    @pytest.mark.parametrize("tier", TIERS)
    def test_one_call_per_layer_without_congestion(self, tier, monkeypatch):
        dep = deployment()
        config = dataclasses.replace(self.CONFIG, tier=tier)
        calls = self.spy(monkeypatch, tier, dep)
        event, fast = run_both(config, 3, dep=dep)
        assert calls == [1, 2, 3]
        assert fast.congested_nodes == []
        assert dataclasses.asdict(fast) == dataclasses.asdict(event)

    @pytest.mark.parametrize("tier", TIERS)
    def test_congesting_next_layer_refines(self, tier, monkeypatch):
        # The ``_flipping_events`` shape at t=11 on one layer-2 node: it
        # congests at t=11 and clears later. Arrivals routed to it before
        # t=11 move its clearing flip, so layer 1 routes a second time.
        dep = deployment()
        times = np.concatenate([np.full(20, 11.0), 13.0 + 2.0 * np.arange(40)])
        schedule = InjectionSchedule(
            attack_times={int(dep.layer_members(2)[0]): times}
        )
        config = dataclasses.replace(self.CONFIG, tier=tier)
        calls = self.spy(monkeypatch, tier, dep)
        event, fast = run_both(config, 3, dep=dep, schedule=schedule)
        assert calls == [1, 1, 2, 3]
        assert dataclasses.asdict(fast) == dataclasses.asdict(event)


class TestHopLatency:
    def test_tiny_representable_latency_still_exact(self):
        # Forced past PacketSimConfig's check, hop_latency=1e-20 keeps
        # this config's routing oscillating (t + 1e-20 == t lets a
        # decision read the arrival it causes). At 1e-9 the clock still
        # advances, so the loop settles on the oracle's answer.
        arch = SOSArchitecture(
            layers=3,
            mapping="one-to-two",
            total_overlay_nodes=400,
            sos_nodes=30,
            filters=4,
        )
        config = PacketSimConfig(
            duration=10.0,
            warmup=2.0,
            clients=20,
            client_rate=10.0,
            node_capacity=15.0,
            hop_latency=1e-9,
        )
        dep = SOSDeployment.deploy(arch, rng=11)
        targets = flood_layer(dep, layer=2, fraction=0.5, rng=3)
        event, fast = run_both(config, 0, targets, dep)
        assert dataclasses.asdict(fast) == dataclasses.asdict(event)


class TestForcedTies:
    """Instants placed on a ``hop_latency`` grid make offers to one node,
    and routing decisions that read it, coincide. The engine orders such
    ties by ``(slot, time)``, the oracle by scheduling order, so tied
    runs are outside the identity promise (these schedules differ from
    the oracle on most seeds). What still holds: the injection schedule
    matches the oracle, the two tiers agree, and a seed reproduces its
    report."""

    HOP = 0.03125  # a power of two: grid sums are exact
    CONFIG = PacketSimConfig(
        duration=6.0,
        warmup=1.0,
        clients=0,
        node_capacity=10.0,
        hop_latency=HOP,
    )

    def grid_schedule(self, dep, seed):
        rng = np.random.default_rng(seed)
        grid = self.HOP * np.arange(32, 6 * 32)
        layer_one = dep.layer_members(1)
        degree = dep.architecture.mapping_degree(1)
        attack_times = {
            int(node): np.sort(rng.choice(grid, size=50, replace=False))
            for node in rng.choice(dep.layer_members(2), size=4, replace=False)
        }
        surges = tuple(
            SurgeSource(
                contacts=tuple(
                    int(node)
                    for node in rng.choice(layer_one, size=degree, replace=False)
                ),
                times=np.sort(rng.choice(grid, size=60, replace=False)),
            )
            for _ in range(4)
        )
        return InjectionSchedule(attack_times=attack_times, surge_sources=surges)

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_schedule_contract(self, seed):
        dep = deployment()
        schedule = self.grid_schedule(dep, seed)
        reports = {
            tier: PacketLevelSimulation(
                dep, dataclasses.replace(self.CONFIG, tier=tier), rng=seed
            ).run(schedule=schedule)
            for tier in TIERS
        }
        again = PacketLevelSimulation(dep, self.CONFIG, rng=seed).run(
            schedule=schedule
        )
        event = EventPacketSimulation(dep, self.CONFIG, rng=seed).run(
            schedule=schedule
        )
        assert dataclasses.asdict(reports["numpy"]) == dataclasses.asdict(
            reports["compiled"]
        )
        assert dataclasses.asdict(reports["numpy"]) == dataclasses.asdict(again)
        assert reports["numpy"].sent == event.sent == 240
        assert (
            reports["numpy"].attack_packets_absorbed
            == event.attack_packets_absorbed
            == 200
        )


class TestReplicaDispatcher:
    CONFIG = PacketSimConfig(
        duration=10.0, warmup=2.0, clients=4, client_rate=2.0
    )
    ARCH = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=400,
        sos_nodes=30,
        filters=4,
    )

    def test_serial_and_parallel_bit_identical(self):
        kwargs = dict(flood_layer_index=1, flood_fraction=0.5, seed=123)
        serial = run_packet_replicas(
            self.ARCH, self.CONFIG, replicas=9, workers=1, **kwargs
        )
        # 9 replicas go out as chunks of 2 over 2 workers and of 1 over 3.
        for workers in (2, 3):
            parallel = run_packet_replicas(
                self.ARCH, self.CONFIG, replicas=9, workers=workers, **kwargs
            )
            assert len(serial) == len(parallel) == 9
            for a, b in zip(serial, parallel):
                assert dataclasses.asdict(a) == dataclasses.asdict(b)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", True),
            ("workers", 2.5),
            ("workers", "2"),
            ("workers", -1),
            ("replicas", True),
            ("replicas", 2.5),
            ("replicas", "2"),
            ("replicas", 0),
            ("flood_fraction", float("nan")),
            ("flood_fraction", -0.5),
            ("flood_fraction", 0.0),
            ("flood_fraction", 2.0),
            ("flood_layer_index", 0),
            ("flood_layer_index", 5),
        ],
    )
    def test_counts_must_be_ints(self, field, value, monkeypatch):
        # Every bad argument fails before any replica deploys.
        def no_deploy(*args, **kwargs):
            raise AssertionError("deployed before validating")

        monkeypatch.setattr(SOSDeployment, "deploy", no_deploy)
        kwargs = {"replicas": 2, "workers": 1, "flood_layer_index": 1}
        kwargs[field] = value
        with pytest.raises(SimulationError, match=field):
            run_packet_replicas(self.ARCH, self.CONFIG, **kwargs)

    def test_mean_delivery_ratio_helper(self):
        reports = run_packet_replicas(
            self.ARCH, self.CONFIG, replicas=3, seed=5, workers=1
        )
        value = mean_delivery_ratio(reports)
        assert value == pytest.approx(
            sum(r.delivery_ratio for r in reports) / 3
        )
        with pytest.raises(SimulationError):
            mean_delivery_ratio([])
