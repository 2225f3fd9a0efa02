"""Tests for executable attack strategies against concrete deployments."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.attacks import IntelligentAttacker, OneBurstStrategy, SuccessiveStrategy
from repro.core import OneBurstAttack, SOSArchitecture, SuccessiveAttack
from repro.errors import ConfigurationError
from repro.overlay.node import NodeHealth
from repro.sos.deployment import SOSDeployment


def deploy(mapping="one-to-half", layers=3, total=400, sos=60, filters=5, seed=7):
    arch = SOSArchitecture(
        layers=layers,
        mapping=mapping,
        total_overlay_nodes=total,
        sos_nodes=sos,
        filters=filters,
    )
    return SOSDeployment.deploy(arch, rng=seed)


class TestOneBurst:
    def test_respects_budgets(self):
        deployment = deploy()
        outcome = OneBurstStrategy().execute(
            deployment, OneBurstAttack(break_in_budget=50, congestion_budget=100),
            rng=1,
        )
        assert outcome.break_in_attempts == 50
        assert outcome.congestion_spent <= 100
        assert outcome.total_broken <= 50

    def test_zero_resources_do_nothing(self):
        deployment = deploy()
        outcome = OneBurstStrategy().execute(
            deployment, OneBurstAttack(0, 0), rng=1
        )
        assert outcome.total_broken == 0
        assert sum(outcome.congested_per_layer.values()) == 0
        assert all(node.is_good for node in deployment.network)

    def test_p_b_one_breaks_every_attempted_sos_node(self):
        deployment = deploy()
        outcome = OneBurstStrategy().execute(
            deployment,
            OneBurstAttack(break_in_budget=400, congestion_budget=0,
                           break_in_success=1.0),
            rng=1,
        )
        # Every SOS node was attempted (budget == N) and P_B = 1.
        assert outcome.total_broken == 60

    def test_p_b_zero_breaks_nothing_but_still_congests_randomly(self):
        deployment = deploy()
        outcome = OneBurstStrategy().execute(
            deployment,
            OneBurstAttack(break_in_budget=100, congestion_budget=50,
                           break_in_success=0.0),
            rng=1,
        )
        assert outcome.total_broken == 0
        # With nothing disclosed the congestion is purely random overlay-wide.
        assert outcome.knowledge.congestion_targets == set()

    def test_disclosed_nodes_congested_first(self):
        deployment = deploy(mapping="one-to-two")
        outcome = OneBurstStrategy().execute(
            deployment,
            OneBurstAttack(break_in_budget=200, congestion_budget=300,
                           break_in_success=1.0),
            rng=3,
        )
        for node_id in outcome.knowledge.congestion_targets:
            assert deployment.resolve(node_id).is_bad

    def test_filters_never_broken(self):
        deployment = deploy()
        outcome = OneBurstStrategy().execute(
            deployment,
            OneBurstAttack(break_in_budget=400, congestion_budget=400,
                           break_in_success=1.0),
            rng=1,
        )
        assert outcome.broken_per_layer[4] == 0

    def test_filters_congested_only_on_disclosure(self):
        deployment = deploy()
        # No break-ins -> no filter disclosure -> no congested filters,
        # even with a huge congestion budget.
        OneBurstStrategy().execute(
            deployment, OneBurstAttack(0, 399), rng=1
        )
        assert len(deployment.filters.good_filters()) == 5

    def test_budget_exceeding_population_rejected(self):
        deployment = deploy()
        with pytest.raises(ConfigurationError):
            OneBurstStrategy().execute(
                deployment, OneBurstAttack(break_in_budget=500), rng=1
            )

    def test_broken_nodes_not_congested(self):
        deployment = deploy()
        OneBurstStrategy().execute(
            deployment,
            OneBurstAttack(break_in_budget=400, congestion_budget=399,
                           break_in_success=1.0),
            rng=1,
        )
        census = Counter(node.health for node in deployment.network)
        # Every overlay node was attempted with P_B = 1, so the whole
        # population is compromised (non-SOS nodes just disclose nothing)
        # and there is nothing left for the congestion budget to touch.
        assert census[NodeHealth.COMPROMISED] == 400
        assert census[NodeHealth.CONGESTED] == 0


class TestSuccessive:
    def test_prior_knowledge_attacks_first_layer(self):
        deployment = deploy()
        outcome = SuccessiveStrategy().execute(
            deployment,
            SuccessiveAttack(break_in_budget=8, congestion_budget=0,
                             rounds=1, prior_knowledge=1.0,
                             break_in_success=1.0),
            rng=1,
        )
        # X_1 = n_1 = 20 > beta = 8: exhausted case, 8 attacked, 12 forfeited.
        assert outcome.break_in_attempts == 8
        assert outcome.broken_per_layer[1] == 8
        assert len(outcome.knowledge.forfeited) == 12

    def test_budget_split_across_rounds(self):
        deployment = deploy()
        outcome = SuccessiveStrategy().execute(
            deployment,
            SuccessiveAttack(break_in_budget=90, congestion_budget=0,
                             rounds=3, prior_knowledge=0.0),
            rng=1,
        )
        assert outcome.rounds_executed <= 3
        assert outcome.break_in_attempts <= 90

    def test_total_attempts_never_exceed_budget(self):
        for seed in range(5):
            deployment = deploy(mapping="one-to-five", seed=seed)
            attack = SuccessiveAttack(break_in_budget=60, congestion_budget=50,
                                      rounds=4, prior_knowledge=0.3)
            outcome = SuccessiveStrategy().execute(deployment, attack, rng=seed)
            assert outcome.break_in_attempts <= 60

    def test_quotas_sum_to_budget(self):
        # Internal arithmetic check through observable behavior: with plenty
        # of rounds and nothing disclosed (P_B=0, P_E=0) all N_T random
        # attempts are spent.
        deployment = deploy()
        outcome = SuccessiveStrategy().execute(
            deployment,
            SuccessiveAttack(break_in_budget=70, congestion_budget=0,
                             rounds=3, prior_knowledge=0.0,
                             break_in_success=0.0),
            rng=1,
        )
        assert outcome.break_in_attempts == 70
        assert outcome.rounds_executed == 3

    def test_disclosure_cascade_reaches_deeper_layers(self):
        deployment = deploy(mapping="one-to-five", total=400, sos=60)
        outcome = SuccessiveStrategy().execute(
            deployment,
            SuccessiveAttack(break_in_budget=60, congestion_budget=0,
                             rounds=3, prior_knowledge=0.5,
                             break_in_success=1.0),
            rng=2,
        )
        # Prior knowledge seeds layer 1; cascading rounds must break into
        # layers 2 and 3 via disclosed neighbor tables.
        assert outcome.broken_per_layer[2] > 0
        assert outcome.broken_per_layer[3] > 0

    def test_filters_disclosed_then_congested(self):
        deployment = deploy(mapping="one-to-all", total=400, sos=60)
        outcome = SuccessiveStrategy().execute(
            deployment,
            SuccessiveAttack(break_in_budget=100, congestion_budget=200,
                             rounds=2, prior_knowledge=0.5,
                             break_in_success=1.0),
            rng=2,
        )
        assert outcome.congested_per_layer[4] == len(
            outcome.knowledge.disclosed_filters
        )
        assert outcome.congested_per_layer[4] > 0

    def test_congestion_budget_scarcity(self):
        deployment = deploy(mapping="one-to-all", total=400, sos=60)
        attack = SuccessiveAttack(break_in_budget=100, congestion_budget=3,
                                  rounds=2, prior_knowledge=0.5,
                                  break_in_success=1.0)
        outcome = SuccessiveStrategy().execute(deployment, attack, rng=2)
        assert outcome.congestion_spent == 3
        assert sum(outcome.congested_per_layer.values()) == 3


class TestAttackerFacade:
    def test_dispatch_one_burst(self):
        deployment = deploy()
        outcome = IntelligentAttacker().execute(
            deployment, OneBurstAttack(10, 10), rng=1
        )
        assert outcome.rounds_executed == 1

    def test_dispatch_successive(self):
        deployment = deploy()
        outcome = IntelligentAttacker().execute(
            deployment, SuccessiveAttack(break_in_budget=30, rounds=3), rng=1
        )
        assert outcome.rounds_executed >= 1

    def test_unknown_attack_rejected(self):
        deployment = deploy()
        with pytest.raises(ConfigurationError):
            IntelligentAttacker().execute(deployment, "flood", rng=1)  # type: ignore[arg-type]


class TestOutcome:
    def test_bad_per_layer_sums(self):
        deployment = deploy()
        outcome = IntelligentAttacker().execute(
            deployment, OneBurstAttack(100, 100, 0.5), rng=4
        )
        bad = outcome.bad_per_layer()
        for layer, count in bad.items():
            assert count == outcome.broken_per_layer[layer] + (
                outcome.congested_per_layer[layer]
            )
        assert outcome.rounds_executed == 1

    def test_outcome_matches_network_census(self):
        deployment = deploy()
        outcome = IntelligentAttacker().execute(
            deployment, OneBurstAttack(100, 100, 0.5), rng=4
        )
        recounted = deployment.bad_counts()
        assert recounted == outcome.bad_per_layer()


class TestStatisticalAgreement:
    """Executed attacks should agree with the analytical per-layer averages."""

    def test_one_burst_break_in_counts_match_expectation(self):
        arch = SOSArchitecture(
            layers=3, mapping="one-to-half",
            total_overlay_nodes=400, sos_nodes=60, filters=5,
        )
        attack = OneBurstAttack(break_in_budget=100, congestion_budget=0,
                                break_in_success=0.5)
        rng = np.random.default_rng(0)
        totals = np.zeros(3)
        trials = 40
        for _ in range(trials):
            deployment = SOSDeployment.deploy(arch, rng=rng)
            outcome = OneBurstStrategy().execute(deployment, attack, rng=rng)
            for layer in (1, 2, 3):
                totals[layer - 1] += outcome.broken_per_layer[layer]
        means = totals / trials
        # Analytical: b_i = P_B * (n_i / N) * N_T = 0.5 * 20/400 * 100 = 2.5
        assert means == pytest.approx([2.5] * 3, abs=0.8)
