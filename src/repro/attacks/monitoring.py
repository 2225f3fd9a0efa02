"""Traffic-monitoring attacker (paper §5, "more sophisticated attack models").

The paper sketches a smarter adversary: once inside a node, it can also
"find previous layer nodes of an attacked node by monitoring the on-going
traffic" — learning who forwards *into* the compromised node, not just who
it forwards to. The paper deems this too hard to analyze mathematically
and leaves it to simulation; this module is that simulation.

:func:`upstream_observer` builds a disclosure extension for the executable
strategies: each upstream node whose neighbor table contains the
compromised node is observed (and hence disclosed) independently with
probability ``observation_probability`` — a stand-in for how much of the
upstream fan-in actually sends traffic during the attack window.

:class:`MonitoringAttacker` packages it, and
:func:`monitoring_damage_comparison` quantifies the extra damage against
the paper's baseline attacker.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Union

from repro.attacks.attacker import IntelligentAttacker
from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.errors import ConfigurationError
from repro.overlay.network import OverlayNetwork
from repro.sos.deployment import SOSDeployment
from repro.sos.protocol import SOSProtocol
from repro.utils.seeding import SeedSequenceFactory
from repro.utils.validation import check_probability

Attack = Union[OneBurstAttack, SuccessiveAttack]


def upstream_observer(observation_probability: float = 1.0):
    """Disclosure extension revealing upstream (previous-layer) nodes.

    Returns a callable suitable for the strategies'
    ``disclosure_extension`` parameter.
    """
    check_probability("observation_probability", observation_probability)

    def observe(deployment: SOSDeployment, node_id: int, rng) -> List[int]:
        if observation_probability <= 0.0:
            # Observe nothing AND consume no randomness, so a zero-probability
            # monitoring attacker is trajectory-identical to the baseline
            # under the same seed.
            return []
        layer = deployment.network.get(node_id).sos_layer
        if layer is None or layer <= 1:
            return []
        # One draw per upstream node that forwards into ``node_id``, in
        # sorted member order.
        store = deployment.network.store
        rows = deployment.member_rows(layer - 1)
        width = int(store.neighbor_len[rows].max(initial=0))
        feeds = (store.neighbor_matrix(rows, width) == node_id).any(axis=1)
        upstream = deployment.member_array(layer - 1)[feeds]
        return upstream[
            rng.random(len(upstream)) < observation_probability
        ].tolist()

    return observe


class MonitoringAttacker(IntelligentAttacker):
    """An intelligent attacker that also monitors traffic through owned nodes.

    Examples
    --------
    >>> from repro.core import SOSArchitecture, SuccessiveAttack
    >>> from repro.sos import SOSDeployment
    >>> arch = SOSArchitecture(layers=3, mapping="one-to-two",
    ...                        total_overlay_nodes=400, sos_nodes=45,
    ...                        filters=5)
    >>> deployment = SOSDeployment.deploy(arch, rng=1)
    >>> outcome = MonitoringAttacker().execute(
    ...     deployment, SuccessiveAttack(break_in_budget=40,
    ...                                  congestion_budget=60), rng=2)
    >>> sum(outcome.broken_per_layer.values()) <= 40
    True
    """

    def __init__(self, observation_probability: float = 1.0) -> None:
        super().__init__(
            disclosure_extension=upstream_observer(observation_probability)
        )
        self.observation_probability = observation_probability


@dataclasses.dataclass(frozen=True)
class MonitoringComparison:
    """Measured damage of the monitoring attacker vs the baseline."""

    baseline_ps: float
    monitoring_ps: float
    baseline_disclosed: float
    monitoring_disclosed: float
    trials: int

    @property
    def extra_disclosure(self) -> float:
        return self.monitoring_disclosed - self.baseline_disclosed


def monitoring_damage_comparison(
    architecture: SOSArchitecture,
    attack: Attack,
    observation_probability: float = 1.0,
    trials: int = 60,
    clients_per_trial: int = 4,
    seed: Optional[int] = None,
) -> MonitoringComparison:
    """Run baseline and monitoring attackers over matched trials."""
    if trials < 1 or clients_per_trial < 1:
        raise ConfigurationError("trials and clients_per_trial must be >= 1")

    def run(attacker) -> tuple:
        factory = SeedSequenceFactory(seed)
        network = OverlayNetwork(
            architecture.total_overlay_nodes, rng=factory.generator()
        )
        ps_values = []
        disclosed = 0.0
        for _ in range(trials):
            trial_rng = factory.generator()
            deployment = SOSDeployment.deploy(
                architecture, network=network, rng=trial_rng
            )
            outcome = attacker.execute(deployment, attack, rng=trial_rng)
            disclosed += len(outcome.knowledge.disclosed)
            protocol = SOSProtocol(deployment)
            hits = 0
            for _ in range(clients_per_trial):
                contacts = deployment.sample_client_contacts(trial_rng)
                hits += int(
                    protocol.send("c", "t", contacts=contacts, rng=trial_rng).delivered
                )
            ps_values.append(hits / clients_per_trial)
        return sum(ps_values) / trials, disclosed / trials

    baseline_ps, baseline_disclosed = run(IntelligentAttacker())
    monitoring_ps, monitoring_disclosed = run(
        MonitoringAttacker(observation_probability)
    )
    return MonitoringComparison(
        baseline_ps=baseline_ps,
        monitoring_ps=monitoring_ps,
        baseline_disclosed=baseline_disclosed,
        monitoring_disclosed=monitoring_disclosed,
        trials=trials,
    )
