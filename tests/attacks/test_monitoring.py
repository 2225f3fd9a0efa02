"""Tests for the traffic-monitoring attacker (paper §5 extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    AttackerKnowledge,
    IntelligentAttacker,
    MonitoringAttacker,
    monitoring_damage_comparison,
    upstream_observer,
)
from repro.core import SOSArchitecture, SuccessiveAttack
from repro.errors import ConfigurationError
from repro.sos.deployment import SOSDeployment


def deploy(seed=3, mapping="one-to-two"):
    arch = SOSArchitecture(
        layers=3,
        mapping=mapping,
        total_overlay_nodes=500,
        sos_nodes=45,
        filters=5,
    )
    return SOSDeployment.deploy(arch, rng=seed)


class TestUpstreamObserver:
    def test_observes_exact_upstream_set(self):
        deployment = deploy()
        observe = upstream_observer(observation_probability=1.0)
        rng = np.random.default_rng(1)
        victim = deployment.layer_members(2)[0]
        observed = observe(deployment, victim, rng)
        expected = [
            node_id
            for node_id in deployment.layer_members(1)
            if victim in deployment.network.get(node_id).neighbors
        ]
        assert sorted(observed) == sorted(expected)

    def test_layer_one_has_no_upstream(self):
        deployment = deploy()
        observe = upstream_observer(1.0)
        rng = np.random.default_rng(1)
        assert observe(deployment, deployment.layer_members(1)[0], rng) == []

    def test_plain_overlay_node_reveals_nothing(self):
        deployment = deploy()
        observe = upstream_observer(1.0)
        rng = np.random.default_rng(1)
        plain = next(n.node_id for n in deployment.network if n.sos_layer is None)
        assert observe(deployment, plain, rng) == []

    def test_zero_observation_probability(self):
        deployment = deploy()
        observe = upstream_observer(0.0)
        rng = np.random.default_rng(1)
        victim = deployment.layer_members(2)[0]
        assert observe(deployment, victim, rng) == []

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            upstream_observer(1.5)


class TestMonitoringAttacker:
    ATTACK = SuccessiveAttack(
        break_in_budget=50, congestion_budget=100, rounds=2, prior_knowledge=0.3
    )

    def test_discloses_at_least_as_much_as_baseline(self):
        totals = {"baseline": 0, "monitoring": 0}
        for seed in range(5):
            base = IntelligentAttacker().execute(deploy(seed), self.ATTACK, rng=seed)
            mon = MonitoringAttacker().execute(deploy(seed), self.ATTACK, rng=seed)
            totals["baseline"] += len(base.knowledge.disclosed)
            totals["monitoring"] += len(mon.knowledge.disclosed)
        assert totals["monitoring"] > totals["baseline"]

    def test_monitoring_can_disclose_layer_one(self):
        # The baseline attacker can never *disclose* layer-1 nodes via
        # break-ins; the monitoring attacker can, by watching traffic
        # arrive at a compromised layer-2 node.
        deployment = deploy()
        knowledge = AttackerKnowledge()
        observe = upstream_observer(1.0)
        rng = np.random.default_rng(1)
        victim = deployment.layer_members(2)[0]
        deployment.network.get(victim).compromise()
        upstream = observe(deployment, victim, rng)
        knowledge.learn_disclosure(upstream)
        layer_one = set(deployment.layer_members(1))
        assert knowledge.disclosed & layer_one


class TestComparison:
    def test_monitoring_does_more_damage(self):
        arch = SOSArchitecture(
            layers=3, mapping="one-to-two",
            total_overlay_nodes=500, sos_nodes=45, filters=5,
        )
        attack = SuccessiveAttack(
            break_in_budget=50, congestion_budget=100, rounds=3,
            prior_knowledge=0.3,
        )
        comparison = monitoring_damage_comparison(
            arch, attack, trials=30, seed=9
        )
        assert comparison.extra_disclosure > 0
        assert comparison.monitoring_ps <= comparison.baseline_ps + 0.05

    def test_validation(self):
        arch = SOSArchitecture(
            layers=2, mapping="one-to-one",
            total_overlay_nodes=300, sos_nodes=30, filters=3,
        )
        with pytest.raises(ConfigurationError):
            monitoring_damage_comparison(
                arch, SuccessiveAttack(break_in_budget=10), trials=0
            )
