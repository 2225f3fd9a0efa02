"""Tests for the SOS forwarding plane."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSArchitecture
from repro.overlay.node import NodeHealth
from repro.sos.deployment import SOSDeployment
from repro.sos.protocol import SOSProtocol
from repro.sos.roles import Role, role_for_layer


def deploy(mapping="one-to-half", layers=3, seed=7):
    arch = SOSArchitecture(
        layers=layers,
        mapping=mapping,
        total_overlay_nodes=400,
        sos_nodes=60,
        filters=5,
    )
    return SOSDeployment.deploy(arch, rng=seed)


@pytest.fixture
def protocol():
    return SOSProtocol(deploy())


class TestHappyPath:
    def test_delivery_through_all_layers(self, protocol):
        receipt = protocol.send("client", "target", rng=1)
        assert receipt.delivered
        assert len(receipt.hop_trail) == 4  # 3 SOS layers + filter
        deployment = protocol.deployment
        roles = [
            role_for_layer(deployment.resolve(h).sos_layer, 3)
            for h in receipt.hop_trail
        ]
        assert roles == [
            Role.ACCESS_POINT,
            Role.BEACON,
            Role.SECRET_SERVLET,
            Role.FILTER,
        ]

    def test_registered_contacts_are_reused(self, protocol):
        contacts = protocol.register_client(rng=3)
        receipt = protocol.send("client", "target", contacts=contacts, rng=1)
        assert receipt.delivered
        assert receipt.hop_trail[0] in contacts

    def test_deterministic_with_seed(self, protocol):
        contacts = protocol.register_client(rng=3)
        a = protocol.send("c", "t", contacts=contacts, rng=9)
        b = protocol.send("c", "t", contacts=contacts, rng=9)
        assert a.hop_trail == b.hop_trail

    def test_path_exists_on_healthy_system(self, protocol):
        contacts = protocol.register_client(rng=3)
        assert protocol.path_exists(contacts)


class TestFailures:
    def test_all_access_points_bad(self, protocol):
        deployment = protocol.deployment
        contacts = protocol.register_client(rng=3)
        for node_id in contacts:
            deployment.network.get(node_id).congest()
        receipt = protocol.send("c", "t", contacts=contacts, rng=1)
        assert not receipt.delivered
        assert receipt.failure_reason == "all access points bad"
        assert receipt.hop_trail == ()

    def test_whole_layer_congested_blocks_delivery(self, protocol):
        deployment = protocol.deployment
        for node_id in deployment.layer_members(2):
            deployment.network.get(node_id).congest()
        receipt = protocol.send("c", "t", rng=1)
        assert not receipt.delivered
        assert "layer-2" in receipt.failure_reason
        contacts = protocol.register_client(rng=3)
        assert not protocol.path_exists(contacts)

    def test_all_filters_congested_blocks_delivery(self, protocol):
        deployment = protocol.deployment
        for filter_id in deployment.filters.filter_ids:
            deployment.filters.congest(filter_id)
        receipt = protocol.send("c", "t", rng=1)
        assert not receipt.delivered
        assert "layer-4" in receipt.failure_reason

    def test_partial_damage_routes_around(self, protocol):
        deployment = protocol.deployment
        # Congest all but one node of layer 2: one-to-half tables make it
        # very likely every layer-1 node still knows the survivor.
        members = deployment.layer_members(2)
        for node_id in members[:-1]:
            deployment.network.get(node_id).congest()
        survivor = members[-1]
        receipt = protocol.send("c", "t", rng=1)
        if receipt.delivered:
            assert receipt.hop_trail[1] == survivor

    def test_compromised_node_does_not_route(self, protocol):
        deployment = protocol.deployment
        for node_id in deployment.layer_members(2):
            deployment.network.get(node_id).health = NodeHealth.COMPROMISED
        receipt = protocol.send("c", "t", rng=1)
        assert not receipt.delivered


class TestOneToOneFragility:
    def test_single_neighbor_failure_blocks_forwarding(self):
        protocol = SOSProtocol(deploy(mapping="one-to-one"))
        deployment = protocol.deployment
        contacts = protocol.register_client(rng=3)
        assert len(contacts) == 1
        entry = deployment.network.get(contacts[0])
        only_neighbor = entry.neighbors[0]
        deployment.network.get(only_neighbor).congest()
        receipt = protocol.send("c", "t", contacts=contacts, rng=1)
        assert not receipt.delivered


class TestReachabilityVsForwarding:
    def test_reachability_upper_bounds_forwarding(self):
        rng = np.random.default_rng(0)
        protocol = SOSProtocol(deploy(mapping="one-to-two", seed=13))
        deployment = protocol.deployment
        # Congest a random half of every layer.
        for layer in (1, 2, 3):
            members = deployment.layer_members(layer)
            for node_id in members[: len(members) // 2]:
                deployment.network.get(node_id).congest()
        forwarded = reachable = 0
        for _ in range(60):
            contacts = deployment.sample_client_contacts(rng)
            delivered = protocol.send("c", "t", contacts=contacts, rng=rng).delivered
            exists = protocol.path_exists(contacts)
            forwarded += int(delivered)
            reachable += int(exists)
            if delivered:
                assert exists  # forwarding success implies a path exists
        assert reachable >= forwarded
