"""Tests for deploying architectures onto overlays."""

from __future__ import annotations

import pytest

from repro.core import SOSArchitecture
from repro.errors import ConfigurationError
from repro.overlay import OverlayNetwork
from repro.sos.deployment import SOSDeployment


def small_arch(**kwargs):
    defaults = dict(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=400,
        sos_nodes=60,
        filters=5,
    )
    defaults.update(kwargs)
    return SOSArchitecture(**defaults)


@pytest.fixture
def deployment():
    return SOSDeployment.deploy(small_arch(), rng=7)


class TestDeploy:
    def test_layer_sizes_match_architecture(self, deployment):
        sizes = [len(deployment.layer_members(i)) for i in (1, 2, 3)]
        assert sizes == deployment.architecture.integer_layer_sizes

    def test_filter_layer_present(self, deployment):
        assert len(deployment.layer_members(4)) == 5

    def test_sos_enrollment_marks_nodes(self, deployment):
        assert len(deployment.network.sos_nodes) == 60

    def test_deterministic_under_seed(self):
        a = SOSDeployment.deploy(small_arch(), rng=11)
        b = SOSDeployment.deploy(small_arch(), rng=11)
        assert a.layer_members(1) == b.layer_members(1)
        node = a.layer_members(1)[0]
        assert a.network.get(node).neighbors == b.network.get(node).neighbors

    def test_existing_network_reused(self):
        network = OverlayNetwork(400, rng=3)
        deployment = SOSDeployment.deploy(small_arch(), network=network, rng=5)
        assert deployment.network is network

    def test_network_size_mismatch_rejected(self):
        network = OverlayNetwork(100, rng=3)
        with pytest.raises(ConfigurationError, match="expects N=400"):
            SOSDeployment.deploy(small_arch(), network=network)

    def test_redeploy_resets_previous_roles(self):
        network = OverlayNetwork(400, rng=3)
        SOSDeployment.deploy(small_arch(), network=network, rng=5)
        second = SOSDeployment.deploy(small_arch(), network=network, rng=6)
        assert len(network.sos_nodes) == 60
        assert len(second.layer_members(1)) == 20


class TestNeighborTables:
    def test_mapping_degree_respected(self, deployment):
        arch = deployment.architecture
        for layer in (1, 2):
            expected = min(
                arch.mapping_degree(layer + 1),
                len(deployment.layer_members(layer + 1)),
            )
            for node_id in deployment.layer_members(layer):
                assert len(deployment.network.get(node_id).neighbors) == expected

    def test_neighbors_live_in_next_layer(self, deployment):
        for layer in (1, 2):
            next_members = set(deployment.layer_members(layer + 1))
            for node_id in deployment.layer_members(layer):
                neighbors = deployment.network.get(node_id).neighbors
                assert set(neighbors) <= next_members

    def test_neighbors_distinct(self, deployment):
        for layer in (1, 2, 3):
            for node_id in deployment.layer_members(layer):
                neighbors = deployment.resolve(node_id).neighbors
                assert len(set(neighbors)) == len(neighbors)

    def test_servlets_point_at_filters(self, deployment):
        filters = set(deployment.filters.filter_ids)
        for node_id in deployment.layer_members(3):
            neighbors = deployment.network.get(node_id).neighbors
            assert set(neighbors) <= filters
            assert deployment.filters.admits(node_id)

    def test_authenticator_enrollment(self, deployment):
        auth = deployment.authenticator
        for layer in (1, 2, 3, 4):
            for node_id in deployment.layer_members(layer):
                # Only enrolled members can issue a MAC at their layer.
                mac = auth.issue(layer, node_id, packet_id=0)
                assert auth.verify(layer, node_id, 0, mac)


class TestViews:
    def test_layer_members_out_of_range(self, deployment):
        with pytest.raises(ConfigurationError):
            deployment.layer_members(9)

    def test_client_contacts_are_layer_one(self, deployment):
        import numpy as np

        contacts = deployment.sample_client_contacts(np.random.default_rng(1))
        assert set(contacts) <= set(deployment.layer_members(1))
        assert len(contacts) == min(
            deployment.architecture.mapping_degree(1),
            len(deployment.layer_members(1)),
        )

    def test_bad_counts_and_reset(self, deployment):
        victim = deployment.layer_members(2)[0]
        deployment.network.get(victim).congest()
        deployment.filters.congest(deployment.filters.filter_ids[0])
        counts = deployment.bad_counts()
        assert counts[2] == 1
        assert counts[4] == 1
        deployment.network.reset_health()
        deployment.filters.reset_health()
        assert all(v == 0 for v in deployment.bad_counts().values())

    def test_good_members(self, deployment):
        victim = deployment.layer_members(1)[0]
        deployment.network.get(victim).congest()
        good = deployment.good_members(1)
        assert victim not in good
        assert len(good) == len(deployment.layer_members(1)) - 1

    def test_reassign_membership(self, deployment):
        import numpy as np

        generator = np.random.default_rng(9)
        chosen = [node.node_id for node in deployment.network][:60]
        deployment.reassign_membership(chosen, generator)
        assert sorted(
            node_id
            for layer in (1, 2, 3)
            for node_id in deployment.layer_members(layer)
        ) == sorted(chosen)
        # Tables rewired and enrollment refreshed.
        first = deployment.layer_members(1)[0]
        assert deployment.network.get(first).neighbors
        auth = deployment.authenticator
        assert auth.verify(1, first, 0, auth.issue(1, first, packet_id=0))

    def test_reassign_membership_wrong_count(self, deployment):
        import numpy as np

        with pytest.raises(ConfigurationError, match="need exactly"):
            deployment.reassign_membership([1, 2, 3], np.random.default_rng(1))

    def test_chord_ring_covers_sos_nodes(self, deployment):
        sos_ids = {node.node_id for node in deployment.network.sos_nodes}
        assert set(deployment.chord.live_node_ids) == sos_ids
