"""Tests for the packet-level flooding simulation."""

from __future__ import annotations

import pytest

from repro.core import SOSArchitecture
from repro.errors import SimulationError
from repro.simulation.packet_sim import (
    MAX_CLIENTS,
    MAX_SOURCE_ARRIVALS,
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment

from tests.perf.event_oracle import EventPacketSimulation


def deployment(seed=7, mapping="one-to-half"):
    arch = SOSArchitecture(
        layers=3,
        mapping=mapping,
        total_overlay_nodes=400,
        sos_nodes=30,
        filters=4,
    )
    return SOSDeployment.deploy(arch, rng=seed)


CONFIG = PacketSimConfig(duration=20.0, warmup=2.0)


class TestConfigValidation:
    def test_duration_must_exceed_warmup(self):
        with pytest.raises(SimulationError):
            PacketSimConfig(duration=1.0, warmup=5.0)

    def test_positive_rates_required(self):
        with pytest.raises(SimulationError):
            PacketSimConfig(client_rate=0)
        with pytest.raises(SimulationError):
            PacketSimConfig(clients=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        ["duration", "hop_latency", "client_rate", "node_capacity", "flood_rate"],
    )
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(SimulationError, match=f"{name} must be finite"):
            PacketSimConfig(**{name: value})

    def test_zero_clients_allowed(self):
        assert PacketSimConfig(clients=0).clients == 0

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"clients": 2.5}, "clients must be an int"),
            ({"clients": True}, "clients must be an int"),
            ({"clients": "3"}, "clients must be an int"),
            ({"clients": 10**12}, "clients must be <="),
            ({"client_rate": 1e300}, "client_rate x"),
            ({"duration": 1e15}, "client_rate x"),
        ],
    )
    def test_counts_it_cannot_run_are_refused(self, settings, message):
        # Each of these used to construct and then fail at run time with
        # a bare TypeError, MemoryError or numpy ValueError.
        with pytest.raises(SimulationError, match=message):
            PacketSimConfig(**settings)

    def test_caps_are_inclusive_and_flood_counts_from_its_start(self):
        assert PacketSimConfig(clients=MAX_CLIENTS).clients == MAX_CLIENTS
        duration = 50.0
        rate = MAX_SOURCE_ARRIVALS / duration
        PacketSimConfig(duration=duration, client_rate=rate, flood_rate=rate)
        with pytest.raises(SimulationError, match="flood_rate x"):
            PacketSimConfig(duration=duration, flood_rate=rate * 2)
        # Flooding from t=25 halves the flood source's expected arrivals.
        PacketSimConfig(duration=duration, flood_rate=rate * 2, flood_start=25.0)

    def test_hop_latency_below_clock_resolution_rejected(self):
        # 10 + 1e-20 == 10: a packet would arrive at the instant it left
        # and routing refinement would never settle.
        with pytest.raises(SimulationError, match="clock resolution"):
            PacketSimConfig(duration=10.0, hop_latency=1e-20)

    def test_tiny_but_representable_hop_latency_runs(self):
        config = PacketSimConfig(
            duration=10.0, warmup=2.0, clients=20, node_capacity=15.0,
            hop_latency=1e-9,
        )
        dep = deployment()
        targets = flood_layer(dep, layer=2, fraction=0.5, rng=2)
        report = PacketLevelSimulation(dep, config, rng=1).run(
            flood_targets=targets
        )
        assert report.sent == (
            report.delivered
            + report.dropped_at_congested
            + report.dropped_no_neighbor
        )

    def test_tier_validated(self):
        with pytest.raises(SimulationError):
            PacketSimConfig(tier="turbo")
        with pytest.raises(SimulationError, match="tier"):
            PacketSimConfig(tier="scalar")  # retired: no per-event tier
        for tier in ("numpy", "compiled"):
            assert PacketSimConfig(tier=tier).tier == tier


class TestBaseline:
    def test_healthy_system_delivers_everything(self):
        sim = PacketLevelSimulation(deployment(), CONFIG, rng=1)
        report = sim.run()
        assert report.sent > 50
        assert report.delivery_ratio == 1.0

    def test_latency_is_hop_count_times_hop_latency(self):
        sim = PacketLevelSimulation(deployment(), CONFIG, rng=1)
        report = sim.run()
        # 4 hops (3 SOS layers + filter) at 0.05 each.
        assert report.mean_latency == pytest.approx(0.2, abs=1e-6)

    def test_deterministic_under_seed(self):
        a = PacketLevelSimulation(deployment(), CONFIG, rng=5).run()
        b = PacketLevelSimulation(deployment(), CONFIG, rng=5).run()
        assert a.sent == b.sent
        assert a.delivered == b.delivered


class TestFlooding:
    def test_flooding_whole_layer_kills_delivery(self):
        dep = deployment()
        sim = PacketLevelSimulation(dep, CONFIG, rng=1)
        targets = flood_layer(dep, layer=2, fraction=1.0, rng=2)
        report = sim.run(flood_targets=targets)
        assert report.delivery_ratio < 0.05
        assert set(report.congested_nodes) >= set(targets)

    def test_partial_flood_degrades_gracefully(self):
        dep = deployment()
        sim = PacketLevelSimulation(dep, CONFIG, rng=1)
        targets = flood_layer(dep, layer=2, fraction=0.5, rng=2)
        report = sim.run(flood_targets=targets)
        # Routing around congested neighbors keeps most traffic flowing.
        assert report.delivery_ratio > 0.5

    def test_flood_targets_must_be_sos_nodes(self):
        dep = deployment()
        sim = PacketLevelSimulation(dep, CONFIG, rng=1)
        plain = next(n.node_id for n in dep.network if n.sos_layer is None)
        with pytest.raises(SimulationError):
            sim.run(flood_targets=[plain])

    def test_flooded_nodes_show_drops(self):
        dep = deployment()
        sim = PacketLevelSimulation(dep, CONFIG, rng=1)
        targets = flood_layer(dep, layer=1, fraction=1.0, rng=2)
        report = sim.run(flood_targets=targets)
        assert report.dropped_at_congested + report.dropped_no_neighbor > 0

    def test_attack_traffic_accounted(self):
        dep = deployment()
        sim = PacketLevelSimulation(dep, CONFIG, rng=1)
        targets = flood_layer(dep, layer=2, fraction=0.5, rng=2)
        report = sim.run(flood_targets=targets)
        # flood_rate=500/node over ~18 post-warmup time units.
        assert report.attack_packets_absorbed > 1000

    def test_bottleneck_layer_is_the_flooded_one(self):
        dep = deployment()
        sim = PacketLevelSimulation(dep, CONFIG, rng=1)
        targets = flood_layer(dep, layer=2, fraction=1.0, rng=2)
        report = sim.run(flood_targets=targets)
        drops = report.drops_per_layer
        assert max(drops, key=drops.get) == 2

    def test_per_layer_arrivals_monotone_down_the_stack(self):
        dep = deployment()
        sim = PacketLevelSimulation(dep, CONFIG, rng=1)
        report = sim.run()
        arrivals = report.arrivals_per_layer
        # Traffic can only shrink as it moves toward the target.
        for layer in (1, 2, 3):
            assert arrivals.get(layer, 0) >= arrivals.get(layer + 1, 0)

    def test_healthy_run_has_no_bottleneck(self):
        dep = deployment()
        report = PacketLevelSimulation(dep, CONFIG, rng=1).run()
        assert not report.drops_per_layer
        assert report.attack_packets_absorbed == 0


class TestFloodLayerHelper:
    def test_fraction_selects_subset(self):
        dep = deployment()
        targets = flood_layer(dep, layer=2, fraction=0.5, rng=1)
        members = dep.layer_members(2)
        assert len(targets) == max(1, round(0.5 * len(members)))
        assert set(targets) <= set(members)

    def test_bad_fraction_rejected(self):
        with pytest.raises(SimulationError):
            flood_layer(deployment(), layer=2, fraction=0.0)


class TestDrainHorizon:
    def test_computed_bound(self):
        # The oracle drains its event queue to this horizon.
        sim = EventPacketSimulation(deployment(), CONFIG, rng=1)
        layers = sim.deployment.architecture.layers
        expected = CONFIG.duration + (layers + 2) * CONFIG.hop_latency
        assert sim.drain_horizon() == pytest.approx(expected)

    def test_every_inflight_packet_resolves(self):
        # Nothing may be lost to the horizon: sent packets either
        # deliver or drop, never silently expire in flight.
        report = PacketLevelSimulation(deployment(), CONFIG, rng=3).run()
        accounted = (
            report.delivered
            + report.dropped_at_congested
            + report.dropped_no_neighbor
        )
        assert accounted == report.sent


class TestStreamingLatency:
    def test_latencies_list_off_by_default(self):
        report = PacketLevelSimulation(deployment(), CONFIG, rng=1).run()
        assert report.delivered > 0
        assert report.latencies == []
        assert report.latency_count == report.delivered

    def test_keep_latencies_populates_list(self):
        config = PacketSimConfig(
            duration=20.0, warmup=2.0, keep_latencies=True
        )
        report = PacketLevelSimulation(deployment(), config, rng=1).run()
        assert len(report.latencies) == report.delivered

    def test_streaming_stats_match_kept_list(self):
        config = PacketSimConfig(
            duration=20.0, warmup=2.0, keep_latencies=True
        )
        report = PacketLevelSimulation(deployment(), config, rng=2).run()
        values = report.latencies
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert report.mean_latency == pytest.approx(mean)
        assert report.latency_m2 / report.latency_count == pytest.approx(
            var, abs=1e-12
        )
        assert report.max_latency == pytest.approx(max(values))

    def test_variance_degenerate_cases(self):
        from repro.simulation.packet_sim import PacketSimReport

        report = PacketSimReport()
        assert report.latency_m2 == 0.0
        report.record_latency(0.3)
        assert report.latency_m2 == 0.0
        assert report.max_latency == 0.3


class TestOneEngine:
    def test_fast_false_names_the_oracle(self):
        sim = PacketLevelSimulation(deployment(), CONFIG, rng=1)
        with pytest.raises(SimulationError, match="event_oracle"):
            sim.run(fast=False)

    def test_fast_true_is_the_default_run(self):
        a = PacketLevelSimulation(deployment(), CONFIG, rng=4).run(fast=True)
        b = PacketLevelSimulation(deployment(), CONFIG, rng=4).run()
        assert a == b


class TestSurgeContacts:
    """Surge sources enter at layer 1, like baseline clients. A contact
    anywhere else used to be read as a layer-1 slot by its position in
    its own layer: on these probes the engine delivered all 40 surge
    packets, while the event-driven oracle, entering at the contact
    itself, delivered none."""

    ARCH = SOSArchitecture(
        layers=3,
        mapping="one-to-two",
        total_overlay_nodes=200,
        sos_nodes=30,
        filters=4,
    )
    CONFIG = PacketSimConfig(duration=10.0, warmup=1.0, clients=0)

    def schedule(self, dep, layer):
        import numpy as np

        from repro.scenarios.schedule import InjectionSchedule
        from repro.scenarios.vectors import SurgeSource

        contacts = tuple(dep.layer_members(layer)[:2])
        times = np.linspace(2.0, 9.0, 40)
        return InjectionSchedule(
            attack_times={},
            surge_sources=(SurgeSource(contacts=contacts, times=times),),
        )

    @pytest.mark.parametrize("layer", [2, 3, 4], ids=["layer2", "layer3", "filters"])
    def test_non_layer_one_contact_rejected(self, layer):
        dep = SOSDeployment.deploy(self.ARCH, rng=3)
        sim = PacketLevelSimulation(dep, self.CONFIG, rng=5)
        with pytest.raises(SimulationError, match="not a layer-1 SOS node"):
            sim.run(schedule=self.schedule(dep, layer))

    def test_layer_one_contacts_run(self):
        dep = SOSDeployment.deploy(self.ARCH, rng=3)
        report = PacketLevelSimulation(dep, self.CONFIG, rng=5).run(
            schedule=self.schedule(dep, 1)
        )
        assert report.sent == 40
