"""Tests for the underlay topology substrate."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.overlay.topology import UnderlayTopology


@pytest.fixture
def topology():
    return UnderlayTopology(routers=80, model="waxman", rng=7)


class TestConstruction:
    def test_connected_waxman(self, topology):
        assert topology.routers == 80
        assert topology.is_connected()

    def test_connected_barabasi(self):
        topo = UnderlayTopology(routers=80, model="barabasi-albert", rng=7)
        assert topo.is_connected()
        assert topo.links >= 79

    def test_links_have_positive_latency(self, topology):
        assert topology.mean_link_latency > 0
        for _, _, data in topology.graph.edges(data=True):
            assert data["latency"] > 0

    def test_deterministic_under_seed(self):
        a = UnderlayTopology(routers=50, rng=3)
        b = UnderlayTopology(routers=50, rng=3)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown underlay model"):
            UnderlayTopology(routers=10, model="smallworld")

    def test_too_few_routers_rejected(self):
        with pytest.raises(ConfigurationError):
            UnderlayTopology(routers=1)


class TestAttachment:
    def test_attach_and_resolve(self, topology):
        topology.attach_overlay_nodes([100, 200, 300])
        for overlay_id in (100, 200, 300):
            assert topology.router_of(overlay_id) in topology.graph

    def test_unattached_rejected(self, topology):
        with pytest.raises(RoutingError, match="not attached"):
            topology.router_of(999)


class TestLatency:
    def test_self_hop_is_free(self, topology):
        topology.attach_overlay_nodes([1])
        assert topology.overlay_hop_latency(1, 1) == 0.0

    def test_triangle_inequality_via_dijkstra(self, topology):
        routers = list(topology.graph.nodes)
        a, b, c = routers[0], routers[10], routers[20]
        assert topology.router_latency(a, c) <= (
            topology.router_latency(a, b) + topology.router_latency(b, c) + 1e-9
        )

    def test_symmetry(self, topology):
        routers = list(topology.graph.nodes)
        a, b = routers[3], routers[40]
        assert topology.router_latency(a, b) == pytest.approx(
            topology.router_latency(b, a)
        )

    def test_path_latency_sums_hops(self, topology):
        topology.attach_overlay_nodes([1, 2, 3])
        total = topology.path_latency([1, 2, 3])
        assert total == pytest.approx(
            topology.overlay_hop_latency(1, 2) + topology.overlay_hop_latency(2, 3)
        )

    def test_unknown_router_rejected(self, topology):
        with pytest.raises(RoutingError):
            topology.router_latency(0, 10_000)


class TestLinkFailures:
    def test_failures_never_shorten_paths(self):
        topo = UnderlayTopology(routers=60, rng=5)
        routers = list(topo.graph.nodes)
        pairs = [(routers[i], routers[-i - 1]) for i in range(5)]
        before = [topo.router_latency(a, b) for a, b in pairs]
        topo.fail_random_links(10)
        after = [topo.router_latency(a, b) for a, b in pairs]
        for b, a in zip(before, after):
            assert a >= b - 1e-9

    def test_massive_failure_partitions(self):
        topo = UnderlayTopology(routers=60, rng=5)
        overlay_ids = list(range(20))
        topo.attach_overlay_nodes(overlay_ids)
        assert topo.partition_fraction(overlay_ids) == 0.0
        topo.fail_random_links(int(topo.links * 0.8))
        assert topo.partition_fraction(overlay_ids) > 0.0

    def test_partitioned_hop_is_infinite(self):
        topo = UnderlayTopology(routers=20, rng=5)
        overlay_ids = list(range(10))
        topo.attach_overlay_nodes(overlay_ids)
        topo.fail_random_links(topo.links - 1)
        latencies = [
            topo.overlay_hop_latency(a, b)
            for a in overlay_ids
            for b in overlay_ids
            if a != b
        ]
        assert any(math.isinf(v) for v in latencies)

    def test_cannot_cut_more_links_than_exist(self, topology):
        with pytest.raises(ConfigurationError):
            topology.fail_random_links(topology.links + 1)

    def test_single_node_partition_fraction_zero(self, topology):
        topology.attach_overlay_nodes([5])
        assert topology.partition_fraction([5]) == 0.0
