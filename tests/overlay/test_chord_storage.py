"""Tests for Chord key-value storage with successor-list replication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.overlay.chord import ChordRing


@pytest.fixture
def ring():
    rng = np.random.default_rng(5)
    ids = sorted(int(i) for i in rng.choice(2**16, size=40, replace=False))
    return ChordRing.build(ids, bits=16)


class TestPutGet:
    def test_round_trip(self, ring):
        holders = ring.put(1234, "servlet-A")
        assert ring.get(1234) == "servlet-A"
        assert len(holders) == ChordRing.DEFAULT_REPLICAS

    def test_owner_holds_copy(self, ring):
        holders = ring.put(1234, "v")
        assert holders[0] == ring.find_successor(1234)

    def test_replicas_are_ring_successors(self, ring):
        holders = ring.put(1234, "v", replicas=3)
        live = ring.live_node_ids
        start = live.index(holders[0])
        expected = [live[(start + offset) % len(live)] for offset in range(3)]
        assert holders == expected

    def test_string_key_helpers(self, ring):
        ring.put_key("target:hospital", 42)
        assert ring.get_key("target:hospital") == 42

    def test_get_from_any_start(self, ring):
        ring.put(777, "v")
        for start in ring.live_node_ids[:8]:
            assert ring.get(777, start=start) == "v"

    def test_missing_key_raises(self, ring):
        with pytest.raises(RoutingError, match="no surviving replica"):
            ring.get(4242)

    def test_overwrite(self, ring):
        ring.put(9, "old")
        ring.put(9, "new")
        assert ring.get(9) == "new"

    def test_replica_cap_on_tiny_rings(self):
        ring = ChordRing.build([1, 200], bits=16)
        holders = ring.put(50, "v", replicas=5)
        assert sorted(holders) == [1, 200]

    def test_invalid_replicas(self, ring):
        with pytest.raises(ConfigurationError):
            ring.put(1, "v", replicas=0)


class TestFailureSurvival:
    def test_value_survives_owner_crash(self, ring):
        ring.put(1234, "v", replicas=3)
        owner = ring.find_successor(1234)
        ring.fail(owner)
        assert ring.get(1234) == "v"

    def test_value_survives_two_crashes_with_three_replicas(self, ring):
        holders = ring.put(1234, "v", replicas=3)
        ring.fail(holders[0])
        ring.fail(holders[1])
        assert ring.get(1234) == "v"
