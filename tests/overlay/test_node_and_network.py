"""Tests for OverlayNode and OverlayNetwork."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import NodeHealth, OverlayNode


class TestNodeHealth:
    def test_good_is_not_bad(self):
        assert not NodeHealth.GOOD.is_bad

    def test_compromised_and_congested_are_bad(self):
        assert NodeHealth.COMPROMISED.is_bad
        assert NodeHealth.CONGESTED.is_bad


class TestOverlayNode:
    def test_defaults(self):
        node = OverlayNode(node_id=5, address="node-5")
        assert node.is_good
        assert node.sos_layer is None
        assert node.neighbors == ()

    def test_sos_enrollment(self):
        node = OverlayNode(node_id=5, address="node-5", sos_layer=2)
        assert node.sos_layer == 2

    def test_compromise_discloses_neighbors(self):
        node = OverlayNode(node_id=5, address="n", neighbors=(1, 2, 3))
        disclosed = node.compromise()
        assert disclosed == frozenset({1, 2, 3})
        assert node.health is NodeHealth.COMPROMISED
        assert node.is_bad

    def test_congest(self):
        node = OverlayNode(node_id=5, address="n")
        node.congest()
        assert node.health is NodeHealth.CONGESTED

    def test_congest_does_not_downgrade_compromised(self):
        node = OverlayNode(node_id=5, address="n")
        node.compromise()
        node.congest()
        assert node.health is NodeHealth.COMPROMISED

    def test_recover(self):
        node = OverlayNode(node_id=5, address="n")
        node.congest()
        node.recover()
        assert node.is_good

    def test_set_neighbors_coerces_tuple(self):
        node = OverlayNode(node_id=5, address="n")
        node.set_neighbors([9, 8])
        assert node.neighbors == (9, 8)

    def test_rejects_negative_id(self):
        with pytest.raises(ConfigurationError):
            OverlayNode(node_id=-1, address="n")

    def test_rejects_bad_layer(self):
        with pytest.raises(ConfigurationError):
            OverlayNode(node_id=1, address="n", sos_layer=0)


class TestOverlayNetwork:
    def test_population_size(self):
        assert len(OverlayNetwork(250, rng=1)) == 250

    def test_unique_identifiers(self):
        network = OverlayNetwork(500, rng=1)
        assert len(set(network.node_ids)) == 500

    def test_deterministic_given_seed(self):
        assert OverlayNetwork(100, rng=3).node_ids == OverlayNetwork(100, rng=3).node_ids

    def test_dense_ring_uses_permutation(self):
        network = OverlayNetwork(200, bits=8, rng=1)
        assert len(set(network.node_ids)) == 200

    def test_ring_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlayNetwork(300, bits=8)

    @pytest.mark.parametrize("bits", [63, 64])
    def test_identifier_space_wider_than_int64_rejected(self, bits):
        # 64 used to die inside numpy's integer draw with a bare
        # ValueError, and 63 built an object-dtype Chord ring.
        with pytest.raises(ConfigurationError, match="bits must be in"):
            OverlayNetwork(10, bits=bits)

    def test_widest_identifier_space(self):
        network = OverlayNetwork(10, bits=62, rng=1)
        assert max(network.node_ids) < 2**62

    def test_get_unknown_raises(self):
        network = OverlayNetwork(10, rng=1)
        missing = next(i for i in range(2**32) if i not in network)
        with pytest.raises(RoutingError):
            network.get(missing)

    def test_layer_views(self):
        network = OverlayNetwork(20, rng=1)
        nodes = list(network)
        nodes[0].sos_layer = 1
        nodes[1].sos_layer = 1
        nodes[2].sos_layer = 2
        assert len(network.sos_nodes) == 3
        assert int((network.store.layer == 1).sum()) == 2
        assert int((network.store.layer == 0).sum()) == 17

    def test_health_census(self):
        network = OverlayNetwork(10, rng=1)
        nodes = list(network)
        nodes[0].congest()
        nodes[1].compromise()
        census = Counter(node.health for node in network)
        assert census[NodeHealth.CONGESTED] == 1
        assert census[NodeHealth.COMPROMISED] == 1
        assert census[NodeHealth.GOOD] == 8
        assert sum(node.is_bad for node in network) == 2

    def test_reset_health(self):
        network = OverlayNetwork(10, rng=1)
        for node in network:
            node.congest()
        network.reset_health()
        assert all(node.is_good for node in network)

    def test_reset_roles(self):
        network = OverlayNetwork(10, rng=1)
        for node in network:
            node.sos_layer = 1
            node.set_neighbors((1,))
        network.reset_roles()
        assert network.sos_nodes == []

    def test_random_sample_distinct(self):
        network = OverlayNetwork(50, rng=1)
        sample = network.random_nodes(20, rng=2)
        assert len({node.node_id for node in sample}) == 20

    def test_random_sample_respects_exclusions(self):
        network = OverlayNetwork(50, rng=1)
        excluded = network.node_ids[:40]
        sample = network.random_nodes(10, rng=2, exclude=excluded)
        assert all(node.node_id not in set(excluded) for node in sample)

    def test_random_sample_pool_exhaustion(self):
        network = OverlayNetwork(5, rng=1)
        with pytest.raises(ConfigurationError):
            network.random_nodes(6)

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            OverlayNetwork(0)
