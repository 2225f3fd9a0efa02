"""``lookup_batch`` against the per-query ``lookup`` oracle.

The batch engine promises *exact* agreement — owners, hop counts, and
success flags — with the scalar lookup on any ring state: freshly
built, churned (failures, joins, leaves), stabilized or stale, across
identifier-space widths, with and without a warm batch cache. These
tests sweep random rings through random churn and check every promise,
plus the vectorized ``rebuild_routing_state`` against its per-node
reference, the snapshot-read stabilize round against the sequential
one, and the input-validation corners.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, RoutingError
from repro.overlay.chord import ChordRing

from tests.overlay.chord_oracles import (
    rebuild_routing_state_scalar,
    routing_state,
    stabilize_round_from_snapshot,
)


def random_ring(rng, bits, size):
    ids = sorted(
        int(i) for i in rng.choice(2**bits, size=size, replace=False)
    )
    return ChordRing.build(ids, bits=bits)


def churn(ring, rng, rounds=3):
    """Apply random fails/joins/leaves/stabilizes, keeping >= 2 live."""
    for _ in range(rounds):
        action = int(rng.integers(0, 4))
        live = ring.live_node_ids
        if action == 0 and len(live) > 2:
            ring.fail(int(rng.choice(live)))
        elif action == 1 and len(live) > 2:
            ring.leave(int(rng.choice(live)))
        elif action == 2:
            candidate = int(rng.integers(0, ring.space.size))
            if not ever_joined(ring, candidate):
                ring.join(candidate)
        else:
            ring.stabilize(rounds=1)


def ever_joined(ring, node_id):
    """True when ``node_id`` is or was a ring member (dead nodes included)."""
    try:
        ring.node(node_id)
    except RoutingError:
        return False
    return True


def assert_batch_matches_oracle(ring, rng, queries=40):
    live = ring.live_node_ids
    keys = [int(k) for k in rng.integers(0, ring.space.size, size=queries)]
    starts = [int(s) for s in rng.choice(live, size=queries)]
    batch = ring.lookup_batch(keys, starts)
    for i, (key, start) in enumerate(zip(keys, starts)):
        oracle = ring.lookup(key, start=start)
        assert bool(batch.succeeded[i]) == oracle.succeeded, (key, start)
        assert int(batch.hops[i]) == oracle.hops, (key, start)
        if oracle.succeeded:
            assert int(batch.owners[i]) == oracle.owner, (key, start)


class TestOracleEquivalence:
    @pytest.mark.parametrize("bits", [5, 8, 12, 16])
    def test_fresh_ring_matches_lookup(self, bits):
        rng = np.random.default_rng(bits)
        ring = random_ring(rng, bits, size=min(2**bits - 1, 40))
        assert_batch_matches_oracle(ring, rng)

    @pytest.mark.parametrize("seed", range(12))
    def test_churned_ring_matches_lookup(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(5, 17))
        ring = random_ring(rng, bits, size=min(2**bits - 1, 30))
        churn(ring, rng, rounds=int(rng.integers(1, 6)))
        # Twice: first call builds the epoch-keyed cache, second hits it.
        assert_batch_matches_oracle(ring, rng)
        assert_batch_matches_oracle(ring, rng)

    def test_cache_invalidated_by_churn(self):
        rng = np.random.default_rng(99)
        ring = random_ring(rng, 10, size=25)
        assert_batch_matches_oracle(ring, rng)  # warm the cache
        ring.fail(ring.live_node_ids[3])
        # Stale fingers + a dead node: only correct if the epoch bump
        # forced a state rebuild.
        assert_batch_matches_oracle(ring, rng)

    def test_single_node_ring(self):
        ring = ChordRing.build([42], bits=8)
        batch = ring.lookup_batch([0, 41, 42, 200], starts=42)
        assert batch.owners.tolist() == [42] * 4
        assert batch.hops.tolist() == [0] * 4
        assert batch.succeeded.all()

    def test_single_live_node_among_dead_rows(self):
        ring = ChordRing.build([3, 40, 90], bits=7)
        ring.fail(40)
        ring.fail(90)
        batch = ring.lookup_batch([0, 50, 100], starts=3)
        assert batch.owners.tolist() == [3, 3, 3]
        assert batch.hops.tolist() == [0, 0, 0]
        assert_batch_matches_oracle(ring, np.random.default_rng(1))

    def test_whole_successor_list_dead_falls_back_to_fingers(self):
        ring = ChordRing.build([1, 18, 36, 99, 200], bits=8)
        ring.node(1).successor_list = [18, 36]
        ring.fail(18)
        ring.fail(36)
        # Node 1's first live successor is now its first live finger.
        assert ring._first_live_successor(ring.node(1)) == 99
        assert_batch_matches_oracle(ring, np.random.default_rng(2))

    def test_pointers_at_unknown_ids_never_qualify(self):
        ring = ChordRing.build([1, 18, 36, 99, 200], bits=8)
        ring.node(36).fingers = [37, 98, 250, 99, 99, 99, 200, 200]
        ring.node(36).successor_list = [37, 99]
        assert_batch_matches_oracle(ring, np.random.default_rng(3))


def _apply_churn(ring, rng, op):
    live = ring.live_node_ids
    if op == "fail" and len(live) > 1:
        ring.fail(int(rng.choice(live)))
    elif op == "leave" and len(live) > 1:
        ring.leave(int(rng.choice(live)))
    elif op == "join":
        candidate = int(rng.integers(0, ring.space.size))
        if candidate not in ring:
            ring.join(candidate)  # a dead id rejoins with fresh state
    elif op == "stabilize":
        ring.stabilize(rounds=1)


@settings(max_examples=60)
@given(
    bits=st.integers(min_value=3, max_value=16),
    size=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ops=st.lists(
        st.sampled_from(["fail", "leave", "join", "stabilize"]), max_size=8
    ),
    cold=st.booleans(),
)
def test_property_batch_equals_lookup(bits, size, seed, ops, cold):
    rng = np.random.default_rng(seed)
    ring = random_ring(rng, bits, size=min(size, 2**bits - 1))
    for op in ops:
        _apply_churn(ring, rng, op)
    if cold:
        # Drop a cache primed by the rebuild, so the columns are encoded
        # from scratch; the second call then reads the warm cache.
        ring._batch_cache = None
    assert_batch_matches_oracle(ring, rng, queries=25)
    assert_batch_matches_oracle(ring, rng, queries=25)


class TestRebuildEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_rebuild_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(5, 14))
        vec = random_ring(rng, bits, size=min(2**bits - 1, 30))
        scalar = ChordRing.build(vec.live_node_ids, bits=bits)
        rebuild_routing_state_scalar(scalar)
        for node_id in vec.live_node_ids:
            a, b = vec.node(node_id), scalar.node(node_id)
            assert a.fingers == b.fingers
            assert a.successor_list == b.successor_list
            assert a.predecessor == b.predecessor


class TestSnapshotFingerReads:
    """Every ``fix_fingers`` lookup of a stabilize round may read the
    state left by the round's stabilize pass: on these churned rings no
    node's fingers, successor list or predecessor differ from the
    sequential round, in which a node's lookups see the fingers that
    earlier nodes already rewrote."""

    @staticmethod
    def _lockstep(rings, rng, steps):
        sequential, snapshot = rings
        differing = node_rounds = 0
        for op in steps:
            if op == "round":
                sequential.stabilize(rounds=1)
                stabilize_round_from_snapshot(snapshot)
                live = sequential.live_node_ids
                assert snapshot.live_node_ids == live
                node_rounds += len(live)
                differing += sum(
                    routing_state(sequential, node_id)
                    != routing_state(snapshot, node_id)
                    for node_id in live
                )
                continue
            live = sequential.live_node_ids
            if op == "join":
                candidate = int(rng.integers(0, sequential.space.size))
                while ever_joined(sequential, candidate):
                    candidate = int(rng.integers(0, sequential.space.size))
                target = candidate
            else:
                target = int(rng.choice(live))
            for ring in rings:
                getattr(ring, op)(target)
        return differing, node_rounds

    def _rings(self, rng, bits, size):
        ids = sorted(
            int(i) for i in rng.choice(2**bits, size=size, replace=False)
        )
        return (
            ChordRing.build(ids, bits=bits),
            ChordRing.build(ids, bits=bits),
        )

    def test_joins_then_rounds(self):
        rng = np.random.default_rng(7)
        rings = self._rings(rng, bits=12, size=40)
        steps = ["join", "round"] * 12 + ["round"] * 3
        # One round after each join (41..52 live nodes), then 3 at 52.
        expected_rounds = sum(range(41, 53)) + 3 * 52
        assert self._lockstep(rings, rng, steps) == (0, expected_rounds)

    def test_crash_failures_then_rounds(self):
        rng = np.random.default_rng(8)
        rings = self._rings(rng, bits=12, size=50)
        steps = ["fail"] * 15 + ["round"] * 3
        assert self._lockstep(rings, rng, steps) == (0, 3 * 35)


class TestValidation:
    @pytest.fixture()
    def ring(self):
        return ChordRing.build([1, 18, 36, 99, 200], bits=8)

    def test_empty_batch(self, ring):
        batch = ring.lookup_batch([], starts=[])
        assert len(batch.owners) == len(batch.hops) == 0
        assert batch.succeeded.dtype == bool

    def test_scalar_start_broadcasts(self, ring):
        batch = ring.lookup_batch([5, 37, 150], starts=1)
        for i, key in enumerate([5, 37, 150]):
            assert int(batch.owners[i]) == ring.lookup(key, start=1).owner

    def test_length_mismatch(self, ring):
        with pytest.raises(ConfigurationError):
            ring.lookup_batch([1, 2, 3], starts=[1, 18])

    def test_out_of_range_key(self, ring):
        with pytest.raises(ConfigurationError):
            ring.lookup_batch([5, 300], starts=1)

    def test_dead_start_rejected(self, ring):
        ring.fail(18)
        with pytest.raises(RoutingError):
            ring.lookup_batch([5], starts=18)

    def test_unknown_start_rejected(self, ring):
        with pytest.raises(RoutingError):
            ring.lookup_batch([5], starts=77)

    def test_float_key_rejected_like_lookup(self, ring):
        with pytest.raises(ConfigurationError, match="1.5"):
            ring.lookup(1.5, start=1)
        with pytest.raises(ConfigurationError, match="1.5"):
            ring.lookup_batch([1.5], starts=1)
        with pytest.raises(ConfigurationError):
            ring.lookup_batch(np.array([5.0, 37.0]), starts=1)

    def test_float_start_rejected(self, ring):
        with pytest.raises(ConfigurationError, match="1.9"):
            ring.lookup_batch([5], starts=[1.9])
        with pytest.raises(ConfigurationError):
            ring.lookup_batch([5], starts=1.0)
        with pytest.raises(ConfigurationError, match="outside ring"):
            ring.lookup_batch([5], starts=2**70)

    @pytest.mark.parametrize("key", [2**63, 2**70, -(2**70)])
    def test_key_overflowing_int64_rejected(self, ring, key):
        with pytest.raises(ConfigurationError, match="outside ring"):
            ring.lookup_batch([5, key], starts=1)

    def test_integer_arrays_accepted(self, ring):
        keys = np.array([5, 37, 150], dtype=np.uint16)
        starts = np.array([1, 18, 99], dtype=np.int32)
        batch = ring.lookup_batch(keys, starts)
        assert batch.owners.tolist() == [18, 99, 200]


class TestIdentifierWidth:
    """Identifiers are int64 end to end: rings wider than 62 bits, whose
    finger starts could overflow int64, are refused up front."""

    @pytest.mark.parametrize("bits", [63, 64, 160])
    def test_wide_ring_rejected(self, bits):
        with pytest.raises(ConfigurationError, match=r"bits must be in \[1, 62\]"):
            ChordRing.build([2**40, 2**50], bits=bits)

    def test_widest_ring_routes_exactly(self):
        rng = np.random.default_rng(62)
        ids = sorted(int(i) for i in rng.integers(0, 2**62, size=30))
        ring = ChordRing.build(ids + [2**62 - 1, 0], bits=62)
        assert_batch_matches_oracle(ring, rng)
        ring.fail(ids[4])
        assert_batch_matches_oracle(ring, rng)
