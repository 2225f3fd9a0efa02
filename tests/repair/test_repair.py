"""Tests for the dynamic-repair extension (paper §5 future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import IntelligentAttacker
from repro.attacks.knowledge import AttackerKnowledge
from repro.attacks.strategies import SuccessiveStrategy
from repro.core import SOSArchitecture, SuccessiveAttack, evaluate
from repro.overlay.node import NodeHealth
from repro.repair import (
    NO_REPAIR,
    RepairPolicy,
    RepairingDefender,
    estimate_ps_with_repair,
)
from repro.sos.deployment import SOSDeployment


def small_arch():
    return SOSArchitecture(
        layers=3,
        mapping="one-to-two",
        total_overlay_nodes=600,
        sos_nodes=45,
        filters=5,
    )


class TestRepairPolicy:
    def test_defaults(self):
        policy = RepairPolicy()
        assert policy.detection_probability == 0.5
        assert policy.capacity_per_round is None
        assert policy.rewire

    def test_noop_detection(self):
        assert NO_REPAIR.is_noop
        assert RepairPolicy(capacity_per_round=0).is_noop
        assert not RepairPolicy().is_noop

    def test_validation(self):
        with pytest.raises(Exception):
            RepairPolicy(detection_probability=1.5)
        with pytest.raises(ValueError):
            RepairPolicy(capacity_per_round=-1)


class TestRepairingDefender:
    def _damaged_deployment(self):
        deployment = SOSDeployment.deploy(small_arch(), rng=3)
        knowledge = AttackerKnowledge()
        victims = deployment.layer_members(2)[:5]
        for node_id in victims:
            deployment.network.get(node_id).health = NodeHealth.COMPROMISED
            knowledge.absorb_break_ins(
                [node_id], [node_id], deployment.network.get(node_id).neighbors
            )
        return deployment, knowledge, victims

    def test_perfect_detection_repairs_everything(self):
        deployment, knowledge, victims = self._damaged_deployment()
        defender = RepairingDefender(RepairPolicy(detection_probability=1.0), rng=1)
        repaired = defender.scan_and_repair(deployment, knowledge)
        assert repaired == 5
        assert all(deployment.network.get(v).is_good for v in victims)

    def test_repair_invalidates_attacker_knowledge(self):
        deployment, knowledge, victims = self._damaged_deployment()
        defender = RepairingDefender(RepairPolicy(detection_probability=1.0), rng=1)
        defender.scan_and_repair(deployment, knowledge)
        for victim in victims:
            assert victim not in knowledge.broken
            assert victim not in knowledge.disclosed
            assert victim not in knowledge.attempted

    def test_rewire_changes_neighbor_tables(self):
        deployment, knowledge, victims = self._damaged_deployment()
        before = {v: deployment.network.get(v).neighbors for v in victims}
        defender = RepairingDefender(RepairPolicy(detection_probability=1.0), rng=1)
        defender.scan_and_repair(deployment, knowledge)
        changed = sum(
            deployment.network.get(v).neighbors != before[v] for v in victims
        )
        # One-to-two tables over 15 candidates: at least some must change.
        assert changed >= 1

    def test_no_rewire_policy_keeps_tables(self):
        deployment, knowledge, victims = self._damaged_deployment()
        before = {v: deployment.network.get(v).neighbors for v in victims}
        defender = RepairingDefender(
            RepairPolicy(detection_probability=1.0, rewire=False), rng=1
        )
        defender.scan_and_repair(deployment, knowledge)
        assert all(
            deployment.network.get(v).neighbors == before[v] for v in victims
        )

    def test_capacity_limits_repairs(self):
        deployment, knowledge, _ = self._damaged_deployment()
        defender = RepairingDefender(
            RepairPolicy(detection_probability=1.0, capacity_per_round=2), rng=1
        )
        assert defender.scan_and_repair(deployment, knowledge) == 2

    def test_noop_policy_repairs_nothing(self):
        deployment, knowledge, victims = self._damaged_deployment()
        defender = RepairingDefender(NO_REPAIR, rng=1)
        assert defender.scan_and_repair(deployment, knowledge) == 0
        assert all(deployment.network.get(v).is_bad for v in victims)

    def test_hook_integration_records_rounds(self):
        deployment = SOSDeployment.deploy(small_arch(), rng=3)
        defender = RepairingDefender(RepairPolicy(detection_probability=1.0), rng=1)
        SuccessiveStrategy().execute(
            deployment,
            SuccessiveAttack(break_in_budget=60, congestion_budget=0,
                             rounds=3, prior_knowledge=0.2),
            rng=2,
            on_round_end=defender,
        )
        assert len(defender.repairs_per_round) >= 1
        assert defender.total_repaired == sum(defender.repairs_per_round.values())

    def test_repaired_filters_recover(self):
        deployment = SOSDeployment.deploy(small_arch(), rng=3)
        knowledge = AttackerKnowledge()
        filter_id = deployment.filters.filter_ids[0]
        deployment.filters.congest(filter_id)
        defender = RepairingDefender(RepairPolicy(detection_probability=1.0), rng=1)
        assert defender.scan_and_repair(deployment, knowledge) == 1
        assert deployment.filters.get(filter_id).is_good


class TestEstimator:
    ATTACK = SuccessiveAttack(
        break_in_budget=60, congestion_budget=120, rounds=3, prior_knowledge=0.2
    )

    def test_repair_never_hurts(self):
        none = estimate_ps_with_repair(
            small_arch(), self.ATTACK, NO_REPAIR, trials=30, seed=4
        )
        strong = estimate_ps_with_repair(
            small_arch(),
            self.ATTACK,
            RepairPolicy(detection_probability=1.0),
            trials=30,
            seed=4,
        )
        assert strong.mean >= none.mean

    def test_perfect_repair_restores_full_availability(self):
        estimate = estimate_ps_with_repair(
            small_arch(),
            self.ATTACK,
            RepairPolicy(detection_probability=1.0),
            trials=20,
            final_scans=2,
            seed=4,
        )
        assert estimate.mean > 0.95

    def test_no_repair_matches_plain_monte_carlo_regime(self):
        estimate = estimate_ps_with_repair(
            small_arch(), self.ATTACK, NO_REPAIR, trials=60, seed=4
        )
        analytical = evaluate(small_arch(), self.ATTACK).p_s
        assert estimate.agrees_with(analytical, tolerance=0.15)

    def test_monotone_in_detection_probability(self):
        means = []
        for p in (0.0, 0.5, 1.0):
            means.append(
                estimate_ps_with_repair(
                    small_arch(),
                    self.ATTACK,
                    RepairPolicy(detection_probability=p),
                    trials=40,
                    seed=4,
                ).mean
            )
        assert means[0] <= means[1] + 0.05
        assert means[1] <= means[2] + 0.05

    def test_invalid_config_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            estimate_ps_with_repair(
                small_arch(), self.ATTACK, NO_REPAIR, trials=0
            )
