"""End-to-end integration tests tying every subsystem together.

The scenario follows the paper's story: design a generalized SOS
architecture, deploy it over an overlay with a Chord ring, admit clients,
run the intelligent successive attack (Algorithm 1) against the live
deployment, and confirm that (a) forwarding degrades exactly as the bad
sets dictate and (b) the analytical model's P_S tracks what actually
happens.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    OneBurstAttack,
    SOSArchitecture,
    SuccessiveAttack,
    evaluate,
)
from repro.attacks import IntelligentAttacker
from repro.core.design_space import best_design
from repro.simulation import (
    PacketLevelSimulation,
    PacketSimConfig,
    estimate_ps,
    flood_layer,
)
from repro.sos import SOSDeployment, SOSProtocol
from repro.sos.roles import Role, role_for_layer


@pytest.fixture(scope="module")
def architecture():
    return SOSArchitecture(
        layers=4,
        mapping="one-to-two",
        total_overlay_nodes=1000,
        sos_nodes=80,
        filters=8,
    )


class TestFullStack:
    def test_design_deploy_attack_route(self, architecture):
        rng = np.random.default_rng(42)
        deployment = SOSDeployment.deploy(architecture, rng=rng)
        protocol = SOSProtocol(deployment)

        # Healthy system: clients route through all five layers.
        contacts = protocol.register_client(rng=rng)
        receipt = protocol.send("alice", "hospital", contacts=contacts, rng=rng)
        assert receipt.delivered
        first, last = (
            deployment.resolve(receipt.hop_trail[i]).sos_layer for i in (0, -1)
        )
        assert role_for_layer(first, architecture.layers) is Role.ACCESS_POINT
        assert role_for_layer(last, architecture.layers) is Role.FILTER

        # Attack it.
        attack = SuccessiveAttack(
            break_in_budget=100, congestion_budget=250, rounds=3,
            prior_knowledge=0.2,
        )
        outcome = IntelligentAttacker().execute(deployment, attack, rng=rng)
        assert outcome.total_broken > 0

        # The attack outcome is visible to routing: success over many
        # clients roughly matches the product over realized bad sets.
        realized = 1.0
        from repro.core.probability import hop_success_probability

        bad = outcome.bad_per_layer()
        for layer in range(1, architecture.layers + 2):
            members = deployment.layer_members(layer)
            degree = min(architecture.mapping_degree(layer), len(members))
            realized *= hop_success_probability(
                len(members), bad[layer], degree
            )
        hits = 0
        trials = 300
        for _ in range(trials):
            contacts = deployment.sample_client_contacts(rng)
            hits += int(
                protocol.send("c", "t", contacts=contacts, rng=rng).delivered
            )
        observed = hits / trials
        assert observed == pytest.approx(realized, abs=0.12)

    def test_analytical_model_predicts_simulation(self, architecture):
        attack = SuccessiveAttack(
            break_in_budget=20, congestion_budget=200, rounds=3,
            prior_knowledge=0.2,
        )
        analytical = evaluate(architecture, attack).p_s
        simulated = estimate_ps(
            architecture, attack, trials=80, clients_per_trial=4, seed=11
        )
        assert simulated.agrees_with(analytical, tolerance=0.12)

    def test_chord_supports_beacon_lookup_under_failures(self, architecture):
        rng = np.random.default_rng(3)
        deployment = SOSDeployment.deploy(architecture, rng=rng)
        chord = deployment.chord
        # Crash a third of the SOS nodes; lookups still resolve and agree.
        victims = rng.choice(chord.live_node_ids, size=25, replace=False)
        for node_id in victims:
            if len(chord) > 1:
                chord.fail(int(node_id))
        start = chord.live_node_ids[0]
        result = chord.lookup(chord.space.hash_key("target:hospital"), start)
        assert result.succeeded
        assert result.owner == chord.find_successor(
            chord.space.hash_key("target:hospital")
        )

    def test_packet_level_confirms_congestion_semantics(self, architecture):
        deployment = SOSDeployment.deploy(architecture, rng=5)
        config = PacketSimConfig(duration=15.0, warmup=2.0)
        baseline = PacketLevelSimulation(deployment, config, rng=1).run()
        assert baseline.delivery_ratio == 1.0

        deployment2 = SOSDeployment.deploy(architecture, rng=5)
        sim = PacketLevelSimulation(deployment2, config, rng=1)
        report = sim.run(
            flood_targets=flood_layer(deployment2, layer=2, fraction=1.0, rng=2)
        )
        assert report.delivery_ratio < baseline.delivery_ratio

    def test_design_search_recommends_paper_optimum(self):
        score = best_design({"paper-default": SuccessiveAttack()})
        assert score.architecture.layers in (3, 4, 5)
        assert score.architecture.mapping_policy.label == "one-to-2"

    def test_original_sos_fragile_generalized_robust(self):
        """The paper's motivating comparison, end to end."""
        from repro.core import original_sos_architecture

        attack = SuccessiveAttack()  # defaults: intelligent attack
        original = evaluate(original_sos_architecture(), attack).p_s
        generalized = evaluate(
            SOSArchitecture(layers=4, mapping="one-to-two"), attack
        ).p_s
        assert original < 0.01
        assert generalized > 0.5

    def test_original_sos_fine_against_its_own_threat_model(self):
        from repro.core import original_sos_architecture

        random_congestion = OneBurstAttack(break_in_budget=0, congestion_budget=6000)
        assert evaluate(original_sos_architecture(), random_congestion).p_s > 0.99
