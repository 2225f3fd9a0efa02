"""Pinned digests of the Monte Carlo trial stream.

Every case below runs one attack path end to end under a fixed seed and
hashes the ``repr`` of what it returns: a :class:`PsEstimate`, a campaign
report, or the full attacker/deployment state after one executed attack.
The digests were recorded before the trial path went array-native, so any
change to which RNG draws the deploy, break-in, congestion or probe steps
make — or to what they do with them — shows up here as a changed digest.

To regenerate after an intended stream change, run this module as a
script (``PYTHONPATH=src python tests/attacks/test_trial_identity.py``)
and paste the printed mapping over ``DIGESTS``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import numpy as np
import pytest

from repro.attacks.monitoring import MonitoringAttacker, monitoring_damage_comparison
from repro.attacks.strategies import SuccessiveStrategy
from repro.attacks.variants import (
    ScheduledSuccessiveStrategy,
    compare_schedules,
    front_loaded_weights,
)
from repro.core import OneBurstAttack, SOSArchitecture, SuccessiveAttack
from repro.overlay.network import OverlayNetwork
from repro.overlay.topology import UnderlayTopology
from repro.repair import RepairPolicy
from repro.repair.defender import RepairingDefender
from repro.repair.estimator import estimate_ps_with_repair
from repro.simulation.campaign import CampaignConfig, run_campaign
from repro.simulation.monte_carlo import MonteCarloConfig, MonteCarloEstimator
from repro.sos.deployment import SOSDeployment
from repro.sos.placement import deploy_with_placement, placement_resilience

MAPPINGS = ("one-to-one", "one-to-two", "one-to-half", "one-to-all")
LAYERS = (2, 3, 4)

#: (attack, metric, churn_fraction) per trial-path family.
ATTACKS = {
    "successive-forward": (
        SuccessiveAttack(
            break_in_budget=16, congestion_budget=50, rounds=3,
            prior_knowledge=0.3,
        ),
        "forward",
        0.0,
    ),
    "one-burst-reach-churn": (
        OneBurstAttack(break_in_budget=60, congestion_budget=150),
        "reachability",
        0.1,
    ),
    "successive-breakin-heavy": (
        SuccessiveAttack(
            break_in_budget=30, congestion_budget=40, rounds=3,
            break_in_success=0.9, prior_knowledge=0.5,
        ),
        "forward",
        0.0,
    ),
}


def _arch(layers: int = 3, mapping: str = "one-to-two") -> SOSArchitecture:
    return SOSArchitecture(
        layers=layers,
        mapping=mapping,
        total_overlay_nodes=400,
        sos_nodes=48,
        filters=6,
    )


def _estimate(arch, attack, metric, churn, seed, attacker=None):
    estimator = MonteCarloEstimator(
        MonteCarloConfig(
            trials=6,
            clients_per_trial=4,
            metric=metric,
            seed=seed,
            churn_fraction=churn,
        )
    )
    if attacker is not None:
        estimator._attacker = attacker
    return estimator.estimate(arch, attack)


def _state(deployment: SOSDeployment, outcome) -> tuple:
    """Everything an executed attack leaves behind, in a stable form."""
    knowledge = outcome.knowledge
    health = hashlib.sha256(
        deployment.network.store.health.tobytes()
        + deployment.filters.store.health.tobytes()
    ).hexdigest()
    return (
        (
            outcome.rounds_executed,
            outcome.break_in_attempts,
            sum(outcome.broken_per_layer.values()),
            sum(outcome.congested_per_layer.values()),
        ),
        outcome.congestion_spent,
        sorted(outcome.broken_per_layer.items()),
        sorted(outcome.congested_per_layer.items()),
        sorted(knowledge.snapshot().items()),
        sorted(knowledge.broken),
        sorted(knowledge.disclosed),
        sorted(knowledge.disclosed_filters),
        sorted(knowledge.forfeited),
        sorted(knowledge.known_unattacked),
        sorted(deployment.bad_counts().items()),
        health,
    )


def _wiring(deployment: SOSDeployment) -> tuple:
    """Membership, neighbor tables, filter admission and the Chord ring."""
    layers = deployment.architecture.layers
    tables = tuple(
        (node_id, deployment.network.get(node_id).neighbors)
        for layer in range(1, layers + 1)
        for node_id in deployment.layer_members(layer)
    )
    admitted = tuple(
        node_id
        for node_id in deployment.layer_members(layers)
        if deployment.filters.admits(node_id)
    )
    return (
        tuple(
            tuple(deployment.layer_members(layer))
            for layer in range(1, layers + 2)
        ),
        tables,
        admitted,
        tuple(deployment.chord.live_node_ids),
    )


def _grid_cases() -> Dict[str, Callable[[], object]]:
    cases: Dict[str, Callable[[], object]] = {}
    for mapping in MAPPINGS:
        for layers in LAYERS:
            for family, (attack, metric, churn) in ATTACKS.items():
                seed = 11 * layers + len(mapping)
                cases[f"mc/{family}/{mapping}/L{layers}"] = (
                    lambda m=mapping, l=layers, a=attack, me=metric, c=churn, s=seed:
                    _estimate(_arch(l, m), a, me, c, s)
                )
    return cases


def _monitoring_cases() -> Dict[str, Callable[[], object]]:
    successive, _, _ = ATTACKS["successive-forward"]
    burst, _, _ = ATTACKS["one-burst-reach-churn"]
    return {
        "monitoring/mc-successive": lambda: _estimate(
            _arch(3, "one-to-half"), successive, "forward", 0.0, 5,
            attacker=MonitoringAttacker(0.6),
        ),
        "monitoring/mc-one-burst": lambda: _estimate(
            _arch(4, "one-to-two"), burst, "reachability", 0.1, 6,
            attacker=MonitoringAttacker(1.0),
        ),
        "monitoring/comparison": lambda: monitoring_damage_comparison(
            _arch(3, "one-to-two"), successive, observation_probability=0.5,
            trials=5, clients_per_trial=3, seed=4,
        ),
    }


def _variant_state() -> tuple:
    attack = SuccessiveAttack(
        break_in_budget=90, congestion_budget=100, rounds=4,
        break_in_success=0.7, prior_knowledge=0.25,
    )
    states = []
    for seed, weights in enumerate(
        ([1.0, 1.0, 1.0, 1.0], front_loaded_weights(4), [0.0, 0.0, 1.0, 3.0])
    ):
        deployment = SOSDeployment.deploy(_arch(3, "one-to-half"), rng=seed)
        outcome = ScheduledSuccessiveStrategy(weights).execute(
            deployment, attack, rng=100 + seed
        )
        states.append(_state(deployment, outcome))
    return tuple(states)


def _repair_state() -> tuple:
    attack = SuccessiveAttack(
        break_in_budget=60, congestion_budget=80, rounds=4,
        break_in_success=0.8, prior_knowledge=0.4,
    )
    deployment = SOSDeployment.deploy(_arch(3, "one-to-two"), rng=21)
    defender = RepairingDefender(
        RepairPolicy(detection_probability=0.6), rng=22
    )
    outcome = SuccessiveStrategy().execute(
        deployment, attack, rng=23, on_round_end=defender
    )
    return (
        _state(deployment, outcome),
        _wiring(deployment),
        sorted(defender.repairs_per_round.items()),
    )


def _placement_state() -> tuple:
    arch = _arch(3, "one-to-two")
    deployment, _ = deploy_with_placement(
        arch, UnderlayTopology(routers=40, rng=8), rng=9, diverse=True
    )
    outcome = SuccessiveStrategy().execute(
        deployment, ATTACKS["successive-forward"][0], rng=10
    )
    return _wiring(deployment), _state(deployment, outcome)


def _deploy_state() -> tuple:
    arch = _arch(4, "one-to-half")
    network = OverlayNetwork(arch.total_overlay_nodes, rng=np.random.default_rng(3))
    return tuple(
        _wiring(SOSDeployment.deploy(arch, network=network, rng=seed))
        for seed in range(3)
    )


CASES: Dict[str, Callable[[], object]] = {
    **_grid_cases(),
    **_monitoring_cases(),
    "variants/compare-schedules": lambda: compare_schedules(
        _arch(3, "one-to-two"),
        SuccessiveAttack(break_in_budget=60, congestion_budget=90, rounds=3),
        trials=4,
        seed=12,
    ),
    "variants/executed-state": _variant_state,
    "campaign/no-repair": lambda: run_campaign(
        _arch(3, "one-to-two"),
        ATTACKS["successive-forward"][0],
        config=CampaignConfig(probes_per_sample=4, cooldown=10.0),
        seed=31,
    ),
    "campaign/repair": lambda: run_campaign(
        _arch(3, "one-to-half"),
        ATTACKS["successive-breakin-heavy"][0],
        repair_policy=RepairPolicy(detection_probability=0.5),
        config=CampaignConfig(probes_per_sample=4, cooldown=10.0),
        seed=32,
    ),
    "repair/on-round-end": _repair_state,
    "repair/estimate": lambda: estimate_ps_with_repair(
        _arch(3, "one-to-two"),
        ATTACKS["successive-breakin-heavy"][0],
        RepairPolicy(detection_probability=0.4, capacity_per_round=3),
        trials=5,
        clients_per_trial=3,
        seed=33,
    ),
    "placement/reassign": _placement_state,
    "placement/resilience": lambda: placement_resilience(
        _arch(3, "one-to-two"), outages=2, probes=40, routers=40, seed=34
    ),
    "deploy/wiring": _deploy_state,
}


def digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


DIGESTS: Dict[str, str] = {
    "campaign/no-repair": "f76b380d2a17c0f56fa3ab7255e523f48f6f8e7f5fbc9b4f53065ea35489efb8",
    "campaign/repair": "4214d897b293ea6aee2cfba455ab32393b528ff468208383a36eb25dc5f5f55b",
    "deploy/wiring": "2231f389d89d8d2fed5422caee552f5a5af81826949ecf7aaa54ddd5f611c6f8",
    "mc/one-burst-reach-churn/one-to-all/L2": "93f6c46f758e43164ad530e6ee45001c6ca704f3db83e49067a51fcbae7121b8",
    "mc/one-burst-reach-churn/one-to-all/L3": "f6eeb7d3a2da1226e495b31ed516aebe9426fc2699d5eb0bb66567001e8135bc",
    "mc/one-burst-reach-churn/one-to-all/L4": "f932a34f5061b269c4fbe879177a0d601d8425aaf362842012ce082fbdb321c8",
    "mc/one-burst-reach-churn/one-to-half/L2": "141556ad33db7a48533df679f62c015086c09834ee13c56247ef8fac8662bb05",
    "mc/one-burst-reach-churn/one-to-half/L3": "faa3ebf28ad0391857f5f82179421b4154b841194fa2fbe0c5f563627332e983",
    "mc/one-burst-reach-churn/one-to-half/L4": "0eecc1a2d63378fc12db577500beb42dd337ed0e2b884228bb9d6676b655f20f",
    "mc/one-burst-reach-churn/one-to-one/L2": "95f4d0a2c16167d1cad528f5c4cf149cc03d37d212f2d00dbe7bf489f66e306f",
    "mc/one-burst-reach-churn/one-to-one/L3": "7fa7ea97d4c93d617df99b786cb68d9e624397d7ae5064467ab3947e80be54f3",
    "mc/one-burst-reach-churn/one-to-one/L4": "b9c716a39650cff8f1b45b0a16a279ca1bdaf67784181ec850d530ef36bcb507",
    "mc/one-burst-reach-churn/one-to-two/L2": "1129de66e52153e29de670ea2628ec8cf02a472a5342bb31abf0cc6fa4055c0a",
    "mc/one-burst-reach-churn/one-to-two/L3": "9b52e903ab8eae04de9e58f53d029e73fef43b25b8f1c4e0ce341c56e9e010c4",
    "mc/one-burst-reach-churn/one-to-two/L4": "56a6648e022db6038f5d7836dd2b3e4b689bd13b1f0b1982ea67999350a4317e",
    "mc/successive-breakin-heavy/one-to-all/L2": "ef040c72b1febbf4318db5929db71f2d2fe84f98518d9507d44888516eb6b80b",
    "mc/successive-breakin-heavy/one-to-all/L3": "bf0b08d543742fc4552f08233f718a72bfecadc79951344dd74fb1c9c785ba49",
    "mc/successive-breakin-heavy/one-to-all/L4": "d1a147cabb6274b2fcd4f7d5a1be05289eca46c7e0a7960297ad6564323f4ee1",
    "mc/successive-breakin-heavy/one-to-half/L2": "6abcc93dd7617c86e357d55fb2364999b97b8c33dc3c1d37bbcdc571e5f4fd55",
    "mc/successive-breakin-heavy/one-to-half/L3": "58396b3a768ea593763599be0f8f55b311aee35d89a3c101f98f7153971a522e",
    "mc/successive-breakin-heavy/one-to-half/L4": "ef853a5d55de99c0e2c5a002d9bc3556952811c0b1733746e269f973f2fde5c4",
    "mc/successive-breakin-heavy/one-to-one/L2": "b7b0a233b58a143918862745c2e708a9cdf29af50864033ec93361099ffb8699",
    "mc/successive-breakin-heavy/one-to-one/L3": "6238f0fbf8731c6908f0fe275ad3741e5396871c702521214e3daead8b3f4d63",
    "mc/successive-breakin-heavy/one-to-one/L4": "9e7b6c2b218d67ceedc41cccccee324d94976654e5ce61349f150c83d92ca6ff",
    "mc/successive-breakin-heavy/one-to-two/L2": "731da5b1ac6029737d1f0cab02438c49cfe4720dcc36461afe9ce214e893d609",
    "mc/successive-breakin-heavy/one-to-two/L3": "1e1f173a48ddc82dda3c9042755ab4c6e539f3fb13b65cd2fa08e83e7ea1caac",
    "mc/successive-breakin-heavy/one-to-two/L4": "78e661a1366e8bdacf846a1e3af6aa5785fb6d507dd9c44a93bcd4485f557de9",
    "mc/successive-forward/one-to-all/L2": "ca6ecf43c025195ea5c8267e71230fa5a5573fb7cf26b36abb662ad2e472e701",
    "mc/successive-forward/one-to-all/L3": "1c71aefb21de2f2a49751623c5244f327bcf6b6bb2e247bcc7a84fbb27ef1440",
    "mc/successive-forward/one-to-all/L4": "f92e83f7e4d805f7698b9f5b4bd4d4a90e40764529ebd53b4afd664f38b9de74",
    "mc/successive-forward/one-to-half/L2": "e005a5c6305f079a4b92fa7645c20cf02dabfce319d6f41957f69fd74b813a36",
    "mc/successive-forward/one-to-half/L3": "2a06cb5da053dd4fd2a0e5b9ed7e151f2447e35d94a6bf0caac709213fd51415",
    "mc/successive-forward/one-to-half/L4": "e5445a78f9d482eb91f2816aa702fa8b7eb0f772f74faa313101578589c605ec",
    "mc/successive-forward/one-to-one/L2": "3bfc24b2c95e18ef3fd78688afc696b45dd922e976b2d680596dc8735613a60a",
    "mc/successive-forward/one-to-one/L3": "4f93ae7785ff6340d1c8e51d0160a95c942a3f5aee1578de24f8add99c0ff5be",
    "mc/successive-forward/one-to-one/L4": "5716037a68b70920e23a05ccaa915db8795e89a0b963b754adbc0f27f4f92fd0",
    "mc/successive-forward/one-to-two/L2": "6e80f5c82ea431c6ebabbc8687fc0e4ae2fc82e3a34ae5917c55b7b626b8d341",
    "mc/successive-forward/one-to-two/L3": "911053205b3fe2b268f8158caff6066cc8d1bd25d4ff6f3c0c398fa7e127a3f3",
    "mc/successive-forward/one-to-two/L4": "8924fcfb266dd84c522f7e0f823b0bca47ab72291a29480043ecae4dca7b6d23",
    "monitoring/comparison": "a0c438f2d338bd51a0348c0725ecc3b257016fac8bcda72f548ddac5af37d2a6",
    "monitoring/mc-one-burst": "2b129d208569dd3b8f3597a0bbf16922434e0dc909f4930f7a5378f69db62889",
    "monitoring/mc-successive": "c6e94e434c7a48f514e421dc11ef65964a4de708826a575ec60ee332154ea796",
    "placement/reassign": "090a8da35dd48bbf42d8cf80b0636e36a53e0089cf98aab40c8620dd603789e5",
    "placement/resilience": "e005ede5a7575c7246af12b9cffec469a0e1dcd6f434bdc425c880fddea8e491",
    "repair/estimate": "507ef94fa98d234ae7dfecf9b5d8b34957b96c5e3ffa1ba0f0ac196b5b50e715",
    "repair/on-round-end": "f426069da12eac357438775d5d26bbf6b4ca3a88cca36e533f4c93b2f59c38fc",
    "variants/compare-schedules": "d6652758f4d01c3173b29abb82f51f4ce2cfb18196f11b65e03aca18a7498b9d",
    "variants/executed-state": "c7d7ea062ddc03f55155828d0023e86777b3253148b75b1b77c0062ec2fb6e33",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trial_stream_digest(name):
    assert digest(CASES[name]()) == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":
    print("DIGESTS: Dict[str, str] = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{digest(CASES[name]())}",')
    print("}")
