"""Stateful property tests: Chord under arbitrary churn.

Hypothesis drives random interleavings of joins, crash failures and
stabilization rounds; after stabilization, lookups from every live node
must agree with the ground-truth successor oracle.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.overlay.chord import ChordRing

BITS = 10
RING_SIZE = 1 << BITS
IDS = st.integers(min_value=0, max_value=RING_SIZE - 1)


class ChordChurnMachine(RuleBasedStateMachine):
    @initialize(seed_ids=st.sets(IDS, min_size=8, max_size=16))
    def setup(self, seed_ids):
        self.ring = ChordRing.build(sorted(seed_ids), bits=BITS)
        self.stable = True

    @rule(node_id=IDS)
    def join(self, node_id):
        if node_id in self.ring:
            return
        self.ring.join(node_id)
        self.stable = False

    @rule(node_id=IDS)
    @precondition(lambda self: len(self.ring) > 4)
    def crash(self, node_id):
        # Crash the owner of node_id's position (a live node, arbitrary).
        victim = self.ring.find_successor(node_id)
        self.ring.fail(victim)
        self.stable = False

    @rule()
    def stabilize(self):
        self.ring.stabilize(rounds=2)
        self.ring.rebuild_routing_state()
        self.stable = True

    @invariant()
    def live_membership_is_consistent(self):
        live = self.ring.live_node_ids
        assert live == sorted(set(live))
        for node_id in live:
            assert node_id in self.ring

    @invariant()
    def lookups_match_oracle_when_stable(self):
        if not self.stable:
            return
        live = self.ring.live_node_ids
        for key in (0, RING_SIZE // 3, RING_SIZE - 1):
            result = self.ring.lookup(key, start=live[0])
            assert result.succeeded
            assert result.owner == self.ring.find_successor(key)


ChordChurnTest = ChordChurnMachine.TestCase
ChordChurnTest.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
