"""Tests for the attacker knowledge base."""

from __future__ import annotations

from repro.attacks.knowledge import AttackerKnowledge


class TestLearning:
    def test_prior_knowledge_enters_attack_pool(self):
        knowledge = AttackerKnowledge()
        knowledge.learn_prior([1, 2, 3])
        assert knowledge.known_unattacked == {1, 2, 3}
        assert knowledge.disclosed == {1, 2, 3}

    def test_disclosure_splits_filters(self):
        knowledge = AttackerKnowledge()
        knowledge.absorb_break_ins((), (), [10, 11], [900])
        assert knowledge.known_unattacked == {10, 11}
        assert knowledge.disclosed_filters == {900}

    def test_already_attempted_nodes_not_reattacked(self):
        knowledge = AttackerKnowledge()
        knowledge.absorb_break_ins([10], [])
        knowledge.absorb_break_ins((), (), [10, 11])
        assert knowledge.known_unattacked == {11}
        # ...but the attacker still knows node 10 is an SOS node.
        assert 10 in knowledge.disclosed

    def test_duplicate_disclosures_collapse(self):
        knowledge = AttackerKnowledge()
        knowledge.absorb_break_ins((), (), [5])
        knowledge.absorb_break_ins((), (), [5])
        assert knowledge.known_unattacked == {5}


class TestAttempts:
    def test_attempt_moves_out_of_pool(self):
        knowledge = AttackerKnowledge()
        knowledge.learn_prior([1])
        knowledge.absorb_break_ins([1], [])
        assert knowledge.known_unattacked == set()
        assert knowledge.attempted == {1}
        assert knowledge.broken == set()

    def test_successful_attempt_recorded(self):
        knowledge = AttackerKnowledge()
        knowledge.absorb_break_ins([2], [2])
        assert knowledge.broken == {2}


class TestForfeit:
    def test_forfeited_leave_pool_but_stay_targets(self):
        knowledge = AttackerKnowledge()
        knowledge.learn_prior([1, 2])
        knowledge.forfeit([1])
        assert knowledge.known_unattacked == {2}
        assert 1 in knowledge.congestion_targets


class TestCongestionTargets:
    def test_disclosed_not_broken(self):
        knowledge = AttackerKnowledge()
        knowledge.absorb_break_ins((), (), [1, 2, 3])
        knowledge.absorb_break_ins([1, 2], [1])
        assert knowledge.congestion_targets == {2, 3}

    def test_filters_separate(self):
        knowledge = AttackerKnowledge()
        knowledge.absorb_break_ins((), (), (), [7, 8])
        assert knowledge.congestion_filter_targets == {7, 8}
        assert knowledge.congestion_targets == set()

    def test_snapshot_counts(self):
        knowledge = AttackerKnowledge()
        knowledge.absorb_break_ins((), (), [1, 2], [9])
        knowledge.absorb_break_ins([1], [1])
        snap = knowledge.snapshot()
        assert snap["disclosed"] == 2
        assert snap["broken"] == 1
        assert snap["disclosed_filters"] == 1
        assert snap["known_unattacked"] == 1
