"""Tests for the Chord DHT implementation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, RoutingError
from repro.overlay.chord import ChordRing


def build_ring(ids, bits=16):
    return ChordRing.build(list(ids), bits=bits)


class TestBuild:
    def test_basic_ring(self):
        ring = build_ring([1, 18, 36, 99, 200], bits=8)
        assert len(ring) == 5
        assert ring.live_node_ids == [1, 18, 36, 99, 200]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ChordRing.build([])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            ChordRing.build([1, 1])

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ConfigurationError):
            ChordRing.build([300], bits=8)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_list_and_array_inputs_rejected_alike(self, as_array):
        def build(ids):
            ChordRing.build(np.asarray(ids) if as_array else ids, bits=8)

        with pytest.raises(ConfigurationError, match="duplicate node id 18"):
            build([200, 18, 1, 18])
        with pytest.raises(ConfigurationError, match="identifier 300 outside"):
            build([1, 300, 18])
        with pytest.raises(ConfigurationError, match="identifier -1 outside"):
            build([1, -1, 18])
        with pytest.raises(ConfigurationError, match="2.5"):
            build([2.5, 1])
        with pytest.raises(ConfigurationError, match="outside ring"):
            build([1, 2**70])

    def test_array_and_list_build_the_same_ring(self):
        ids = [200, 1, 99, 18, 36]
        a = ChordRing.build(ids, bits=8)
        b = ChordRing.build(np.asarray(ids, dtype=np.int32), bits=8)
        assert a.live_node_ids == b.live_node_ids == sorted(ids)
        for node_id in a.live_node_ids:
            assert a.node(node_id).fingers == b.node(node_id).fingers

    def test_single_node_ring(self):
        ring = build_ring([42], bits=8)
        assert ring.find_successor(0) == 42
        result = ring.lookup(200, start=42)
        assert result.succeeded
        assert result.owner == 42


class TestOwnership:
    def test_find_successor_wraps(self):
        ring = build_ring([10, 100, 200], bits=8)
        assert ring.find_successor(5) == 10
        assert ring.find_successor(10) == 10
        assert ring.find_successor(11) == 100
        assert ring.find_successor(201) == 10  # wraps past the top

    def test_every_key_has_exactly_one_owner(self):
        ring = build_ring([10, 100, 200], bits=8)
        owners = {ring.find_successor(k) for k in range(256)}
        assert owners == {10, 100, 200}


class TestFingerTables:
    def test_fingers_point_to_interval_successors(self):
        ring = build_ring([1, 18, 36, 99, 200], bits=8)
        node = ring.node(1)
        # finger[i] = successor(1 + 2^i)
        expected = [ring.find_successor((1 + (1 << i)) % 256) for i in range(8)]
        assert node.fingers == expected

    def test_successor_list_follows_ring_order(self):
        ring = build_ring([1, 18, 36, 99, 200], bits=8)
        assert ring.node(1).successor_list[:4] == [18, 36, 99, 200]

    def test_predecessors(self):
        ring = build_ring([1, 18, 36], bits=8)
        assert ring.node(1).predecessor == 36
        assert ring.node(18).predecessor == 1


class TestLookup:
    def test_owner_matches_oracle(self):
        rng = np.random.default_rng(7)
        ids = sorted(int(i) for i in rng.choice(2**16, size=120, replace=False))
        ring = build_ring(ids)
        for _ in range(150):
            key = int(rng.integers(0, 2**16))
            start = ids[int(rng.integers(0, len(ids)))]
            result = ring.lookup(key, start)
            assert result.succeeded
            assert result.owner == ring.find_successor(key)

    def test_logarithmic_hops(self):
        rng = np.random.default_rng(3)
        ids = sorted(int(i) for i in rng.choice(2**20, size=400, replace=False))
        ring = ChordRing.build(ids, bits=20)
        hops = []
        for _ in range(150):
            key = int(rng.integers(0, 2**20))
            start = ids[int(rng.integers(0, len(ids)))]
            hops.append(ring.lookup(key, start).hops)
        # Chord: O(log2 N) hops; allow factor ~1.5 on the mean.
        assert sum(hops) / len(hops) <= 1.5 * math.log2(len(ids))

    def test_path_starts_at_origin(self):
        ring = build_ring([1, 18, 36, 99, 200], bits=8)
        result = ring.lookup(70, start=200)
        assert result.path[0] == 200
        assert result.path[-1] == result.owner

    def test_lookup_from_dead_node_rejected(self):
        ring = build_ring([1, 18, 36], bits=8)
        ring.fail(18)
        with pytest.raises(RoutingError):
            ring.lookup(5, start=18)


class TestJoin:
    def test_join_then_stabilize_converges(self):
        rng = np.random.default_rng(11)
        ids = sorted(int(i) for i in rng.choice(2**16, size=60, replace=False))
        ring = build_ring(ids[:30])
        for node_id in ids[30:]:
            ring.join(node_id)
            ring.stabilize(rounds=1)
        ring.stabilize(rounds=3)
        for _ in range(100):
            key = int(rng.integers(0, 2**16))
            start = ids[int(rng.integers(0, len(ids)))]
            result = ring.lookup(key, start)
            assert result.succeeded
            assert result.owner == ring.find_successor(key)

    def test_join_existing_rejected(self):
        ring = build_ring([1, 18], bits=8)
        with pytest.raises(ConfigurationError):
            ring.join(18)

    def test_join_empty_ring(self):
        ring = ChordRing(bits=8)
        ring.join(7)
        assert ring.lookup(200, start=7).owner == 7


class TestStabilize:
    @pytest.mark.parametrize(
        "ids, bits",
        [([0, 100, 200], 8), ([0, 1, 2, 3], 2), ([0, 5, 77, 140, 201], 8)],
    )
    def test_round_on_exact_ring_keeps_fingers_through_node_zero(
        self, ids, bits
    ):
        # Fingers owned by node 0 used to read as a failed lookup (0 is
        # falsy) and were replaced by the node's successor: on the first
        # ring, node 100's last finger became 200.
        ring = ChordRing.build(ids, bits=bits)
        exact = {node_id: ring.node(node_id).fingers for node_id in ids}
        assert any(0 in fingers for fingers in exact.values())
        ring.stabilize(rounds=1)
        for node_id in ids:
            assert ring.node(node_id).fingers == exact[node_id]


class TestFailures:
    def _scored_ring(self, failures, seed=5):
        rng = np.random.default_rng(seed)
        ids = sorted(int(i) for i in rng.choice(2**16, size=200, replace=False))
        ring = build_ring(ids)
        dead = rng.choice(ids, size=failures, replace=False)
        for node_id in dead:
            ring.fail(int(node_id))
        return ring, rng

    def test_random_failures_routed_around(self):
        ring, rng = self._scored_ring(failures=40)
        for _ in range(150):
            key = int(rng.integers(0, 2**16))
            start = ring.live_node_ids[int(rng.integers(0, len(ring)))]
            result = ring.lookup(key, start)
            assert result.succeeded
            assert result.owner == ring.find_successor(key)

    def test_fail_is_idempotent(self):
        ring = build_ring([1, 18, 36], bits=8)
        ring.fail(18)
        ring.fail(18)
        assert len(ring) == 2

    def test_last_node_cannot_fail(self):
        ring = build_ring([5], bits=8)
        with pytest.raises(RoutingError):
            ring.fail(5)

    def test_membership_check(self):
        ring = build_ring([1, 18, 36], bits=8)
        ring.fail(18)
        assert 18 not in ring
        assert 1 in ring

    def test_stabilize_repairs_state(self):
        ring, rng = self._scored_ring(failures=40)
        ring.stabilize(rounds=3)
        # After stabilization no live node references a dead successor first.
        for node_id in ring.live_node_ids:
            assert ring.node(node_id).successor in ring

    def test_leave_hands_over_pointers(self):
        ring = build_ring([1, 18, 36, 99], bits=8)
        ring.leave(36)
        assert 36 not in ring
        assert ring.node(18).successor == 99
        assert ring.node(99).predecessor == 18
        result = ring.lookup(30, start=1)
        assert result.owned if hasattr(result, "owned") else result.owner == 99


class TestValidationAndLimits:
    def test_bad_successor_list_length(self):
        with pytest.raises(ConfigurationError):
            ChordRing(successor_list_length=0)

    def test_stabilize_requires_positive_rounds(self):
        ring = build_ring([1, 2], bits=8)
        with pytest.raises(ConfigurationError):
            ring.stabilize(rounds=0)

    def test_unknown_node_access(self):
        ring = build_ring([1], bits=8)
        with pytest.raises(RoutingError):
            ring.node(99)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    size=st.integers(min_value=2, max_value=40),
)
def test_property_lookup_always_matches_oracle(data, size):
    ids = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=2**12 - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    ring = ChordRing.build(ids, bits=12)
    key = data.draw(st.integers(min_value=0, max_value=2**12 - 1))
    start = data.draw(st.sampled_from(ids))
    result = ring.lookup(key, start)
    assert result.succeeded
    assert result.owner == ring.find_successor(key)
