"""Packet marking: attack-graph construction and mark collection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.marking import (
    MarkCollector,
    MarkingConfig,
    PacketMark,
    build_attack_graph,
)
from repro.errors import DetectionError


def graph_and_config(targets=(10, 20), **overrides):
    config = MarkingConfig(
        probability=0.1, sources_per_target=2, path_depth=4, **overrides
    )
    return build_attack_graph(targets, config), config


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": 0.0},
            {"probability": 1.0},
            {"sources_per_target": 0},
            {"path_depth": 0},
        ],
    )
    def test_bad_configs_raise(self, kwargs):
        with pytest.raises((DetectionError, Exception)):
            MarkingConfig(**kwargs)


class TestAttackGraph:
    def test_structure(self):
        graph, config = graph_and_config()
        assert graph.victims() == [10, 20]
        assert len(graph) == 4
        for victim in graph.victims():
            paths = graph.paths_for(victim)
            assert len(paths) == config.sources_per_target
            for path in paths:
                assert path.depth == config.path_depth
                assert path.victim == victim

    def test_paths_node_disjoint(self):
        graph, _ = graph_and_config()
        seen = set()
        for path in graph.paths:
            routers = set(path.routers)
            assert not routers & seen
            seen |= routers
            assert path.source not in seen

    def test_deterministic(self):
        a, _ = graph_and_config()
        b, _ = graph_and_config()
        assert a.paths == b.paths

    def test_edges_chain_to_victim(self):
        graph, config = graph_and_config(targets=(5,))
        path = graph.paths_for(5)[0]
        mark0 = path.edge_at_distance(0)
        assert mark0.end == 5 and mark0.distance == 0
        for distance in range(1, config.path_depth):
            mark = path.edge_at_distance(distance)
            nearer = path.edge_at_distance(distance - 1)
            assert mark.end == nearer.start

    def test_bad_inputs(self):
        _, config = graph_and_config()
        with pytest.raises(DetectionError):
            build_attack_graph([], config)
        with pytest.raises(DetectionError):
            build_attack_graph([1, 1], config)
        graph, _ = graph_and_config()
        with pytest.raises(DetectionError):
            graph.paths_for(99)


class TestMarkCollector:
    def test_scalar_batch_bit_identical(self):
        graph, config = graph_and_config()
        rng = np.random.default_rng(3)
        uniforms = rng.random((500, 2))
        scalar = MarkCollector(graph, config)
        batch = MarkCollector(graph, config)
        for u in uniforms:
            scalar.observe(10, float(u[0]), float(u[1]))
        batch.observe_batch(10, uniforms)
        assert scalar.packets_per_victim == batch.packets_per_victim
        assert scalar.marks_for(10) == batch.marks_for(10)
        assert scalar.marks_for(20) == batch.marks_for(20) == {}

    def test_distance_distribution_geometric(self):
        graph, config = graph_and_config(targets=(10,))
        collector = MarkCollector(graph, config)
        n = 200_000
        collector.observe_batch(10, np.random.default_rng(8).random((n, 2)))
        p = config.probability
        total_marked = sum(
            tally.count for tally in collector.marks_for(10).values()
        )
        # Unmarked fraction ~ (1 - p)^depth.
        expected_unmarked = (1.0 - p) ** config.path_depth
        assert (n - total_marked) / n == pytest.approx(
            expected_unmarked, rel=0.05
        )
        # Distance-j mass ~ p (1-p)^j, split over the victim's 2 sources.
        by_distance = {}
        for mark, tally in collector.marks_for(10).items():
            by_distance[mark.distance] = (
                by_distance.get(mark.distance, 0) + tally.count
            )
        for distance in range(config.path_depth):
            expected = p * (1.0 - p) ** distance
            assert by_distance[distance] / n == pytest.approx(
                expected, rel=0.1
            )

    def test_first_packet_is_min(self):
        graph, config = graph_and_config(targets=(10,))
        collector = MarkCollector(graph, config)
        # Packet 1 unmarked (u_mark ~ 1), packet 2 marks distance 0 on
        # source 0, packet 3 repeats the same mark.
        collector.observe(10, 0.0, 0.999999)
        collector.observe(10, 0.0, 0.01)
        collector.observe(10, 0.0, 0.01)
        path = graph.paths_for(10)[0]
        mark = path.edge_at_distance(0)
        tally = collector.marks_for(10)[mark]
        assert tally.first_packet == 2
        assert tally.count == 2
        assert collector.packets_per_victim[10] == 3

    def test_memory_bounded_by_distinct_marks(self):
        graph, config = graph_and_config(targets=(10,))
        collector = MarkCollector(graph, config)
        collector.observe_batch(
            10, np.random.default_rng(1).random((50_000, 2))
        )
        assert (
            len(collector.marks_for(10))
            <= config.sources_per_target * config.path_depth
        )

    def test_unknown_victim_rejected(self):
        graph, config = graph_and_config()
        collector = MarkCollector(graph, config)
        with pytest.raises(DetectionError):
            collector.observe(99, 0.5, 0.5)
        with pytest.raises(DetectionError):
            collector.observe_batch(99, np.zeros((1, 2)))

    def test_bad_shape_rejected(self):
        graph, config = graph_and_config()
        collector = MarkCollector(graph, config)
        with pytest.raises(DetectionError):
            collector.observe_batch(10, np.zeros((3, 3)))


def test_packet_mark_hashable():
    mark = PacketMark(start=1, end=2, distance=0)
    assert mark in {mark}
