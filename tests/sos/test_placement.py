"""Tests for underlay-aware SOS node placement."""

from __future__ import annotations

import pytest

from repro.core import SOSArchitecture
from repro.errors import ConfigurationError
from repro.overlay.network import OverlayNetwork
from repro.overlay.topology import UnderlayTopology
from repro.sos.placement import (
    deploy_with_placement,
    diverse_enrollment,
    placement_resilience,
)


def arch():
    return SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=400,
        sos_nodes=45,
        filters=5,
    )


class TestRouterFailures:
    def test_fail_busiest_targets_concentration(self):
        topology = UnderlayTopology(routers=40, rng=1)
        ids = list(range(60))
        topology.attach_overlay_nodes(ids, concentration=2.0)
        loads = {}
        for overlay_id in ids:
            router = topology.router_of(overlay_id)
            loads[router] = loads.get(router, 0) + 1
        busiest = max(loads, key=loads.get)
        victims = topology.fail_busiest_routers(1, ids)
        assert victims == [busiest]

    def test_concentration_validation(self):
        topology = UnderlayTopology(routers=10, rng=1)
        with pytest.raises(ConfigurationError):
            topology.attach_overlay_nodes([1], concentration=-1)

    def test_concentrated_attachment_clusters(self):
        topology = UnderlayTopology(routers=50, rng=1)
        ids = list(range(200))
        topology.attach_overlay_nodes(ids, concentration=2.0)
        routers_used = {topology.router_of(i) for i in ids}
        # Zipf concentration: far fewer distinct routers than uniform.
        assert len(routers_used) < 40


class TestDiverseEnrollment:
    def test_spreads_over_distinct_routers(self):
        network = OverlayNetwork(200, rng=2)
        topology = UnderlayTopology(routers=60, rng=3)
        topology.attach_overlay_nodes(
            (n.node_id for n in network), concentration=1.5
        )
        chosen = diverse_enrollment(network, topology, 30, rng=4)
        routers = {topology.router_of(node_id) for node_id in chosen}
        assert len(chosen) == 30
        # Diversity: at least ~2/3 distinct routers despite the clustering.
        assert len(routers) >= 20

    def test_count_validation(self):
        network = OverlayNetwork(50, rng=2)
        topology = UnderlayTopology(routers=20, rng=3)
        topology.attach_overlay_nodes(n.node_id for n in network)
        with pytest.raises(ConfigurationError):
            diverse_enrollment(network, topology, 0)
        with pytest.raises(ConfigurationError):
            diverse_enrollment(network, topology, 51)


class TestDeployWithPlacement:
    def test_layer_sizes_preserved(self):
        topology = UnderlayTopology(routers=60, rng=3)
        deployment, network = deploy_with_placement(
            arch(), topology, rng=5, diverse=True
        )
        assert [len(deployment.layer_members(i)) for i in (1, 2, 3)] == (
            arch().integer_layer_sizes
        )
        assert len(network.sos_nodes) == 45

    def test_neighbor_tables_rewired_consistently(self):
        topology = UnderlayTopology(routers=60, rng=3)
        deployment, _ = deploy_with_placement(arch(), topology, rng=5)
        for layer in (1, 2):
            next_members = set(deployment.layer_members(layer + 1))
            for node_id in deployment.layer_members(layer):
                neighbors = deployment.network.get(node_id).neighbors
                assert neighbors
                assert set(neighbors) <= next_members

    def test_routing_works_after_placement(self):
        from repro.sos.protocol import SOSProtocol

        topology = UnderlayTopology(routers=60, rng=3)
        deployment, _ = deploy_with_placement(arch(), topology, rng=5)
        receipt = SOSProtocol(deployment).send("c", "t", rng=6)
        assert receipt.delivered


class TestResilience:
    def test_diverse_placement_survives_targeted_outages(self):
        random_rate, diverse_rate = placement_resilience(
            arch(), outages=3, probes=150, seed=11
        )
        assert diverse_rate > random_rate + 0.2

    def test_no_outage_both_connected(self):
        random_rate, diverse_rate = placement_resilience(
            arch(), outages=0, probes=60, seed=11
        )
        assert random_rate == 1.0
        assert diverse_rate == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            placement_resilience(arch(), outages=-1)
