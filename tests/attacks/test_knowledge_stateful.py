"""Stateful property tests: AttackerKnowledge under arbitrary op sequences.

Hypothesis drives random interleavings of learning, attacking, and
forfeiting, and after every step checks the set-algebra invariants that
the analytical model's overlap discounting relies on (Fig. 5 of the
paper): the pools must stay disjoint where the derivation assumes
disjointness, and nothing may be both broken and congestible.

A shadow knowledge base replays every bulk ``absorb_break_ins`` batch
attempt by attempt (``record_attempt``, then ``learn_disclosure`` for a
success); the two must agree on every set after every step.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.attacks.knowledge import AttackerKnowledge

NODE_IDS = st.integers(min_value=0, max_value=60)
FILTER_IDS = st.integers(min_value=1000, max_value=1010)


class KnowledgeMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.knowledge = AttackerKnowledge()
        self.replay = AttackerKnowledge()

    @rule(node_ids=st.lists(NODE_IDS, max_size=8))
    def learn_prior(self, node_ids):
        for knowledge in (self.knowledge, self.replay):
            knowledge.learn_prior(node_ids)

    @rule(
        node_ids=st.lists(NODE_IDS, max_size=8),
        filter_ids=st.lists(FILTER_IDS, max_size=3),
    )
    def learn_disclosure(self, node_ids, filter_ids):
        for knowledge in (self.knowledge, self.replay):
            knowledge.learn_disclosure(node_ids, filter_ids)

    @rule(node_id=NODE_IDS, success=st.booleans())
    def attempt(self, node_id, success):
        for knowledge in (self.knowledge, self.replay):
            knowledge.record_attempt(node_id, success)

    @rule(
        batch=st.lists(
            st.tuples(
                NODE_IDS,
                st.booleans(),
                st.lists(NODE_IDS, max_size=4),
                st.lists(FILTER_IDS, max_size=2),
            ),
            max_size=6,
            unique_by=lambda attempt: attempt[0],
        )
    )
    def break_in_batch(self, batch):
        successes = [attempt for attempt in batch if attempt[1]]
        self.knowledge.absorb_break_ins(
            [node_id for node_id, _, _, _ in batch],
            [node_id for node_id, _, _, _ in successes],
            [node for _, _, nodes, _ in successes for node in nodes],
            [node for _, _, _, filters in successes for node in filters],
        )
        for node_id, success, nodes, filters in batch:
            self.replay.record_attempt(node_id, success)
            if success:
                self.replay.learn_disclosure(nodes, filters)

    @rule(node_ids=st.lists(NODE_IDS, max_size=8))
    def forfeit(self, node_ids):
        for knowledge in (self.knowledge, self.replay):
            knowledge.forfeit(node_ids)

    # ------------------------------------------------------------------
    # Invariants the analytical bookkeeping depends on
    # ------------------------------------------------------------------
    @invariant()
    def attack_pool_never_contains_attempted(self):
        assert not (self.knowledge.known_unattacked & self.knowledge.attempted)

    @invariant()
    def broken_is_subset_of_attempted(self):
        assert self.knowledge.broken <= self.knowledge.attempted

    @invariant()
    def congestion_targets_exclude_broken(self):
        assert not (self.knowledge.congestion_targets & self.knowledge.broken)

    @invariant()
    def filters_never_enter_overlay_pools(self):
        filters = self.knowledge.disclosed_filters
        assert not (filters & self.knowledge.known_unattacked)
        assert not (filters & self.knowledge.broken)

    @invariant()
    def bulk_batches_equal_attempt_replay(self):
        for name in (
            "known_unattacked", "attempted", "broken", "disclosed",
            "disclosed_filters", "forfeited",
        ):
            assert getattr(self.knowledge, name) == getattr(self.replay, name)

    @invariant()
    def snapshot_matches_sets(self):
        snapshot = self.knowledge.snapshot()
        assert snapshot["broken"] == len(self.knowledge.broken)
        assert snapshot["disclosed"] == len(self.knowledge.disclosed)
        assert snapshot["known_unattacked"] == len(self.knowledge.known_unattacked)


KnowledgeStatefulTest = KnowledgeMachine.TestCase
KnowledgeStatefulTest.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
