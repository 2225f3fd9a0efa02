"""Attacker facade dispatching on the attack model."""

from __future__ import annotations

from typing import Union

from repro.attacks.outcome import AttackOutcome
from repro.attacks.strategies import OneBurstStrategy, SuccessiveStrategy
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.errors import ConfigurationError
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import SeedLike


class IntelligentAttacker:
    """Executes either intelligent attack model against a deployment.

    Examples
    --------
    >>> from repro.core import SOSArchitecture, SuccessiveAttack
    >>> from repro.sos import SOSDeployment
    >>> arch = SOSArchitecture(layers=2, mapping="one-to-two",
    ...                        total_overlay_nodes=400, sos_nodes=40)
    >>> deployment = SOSDeployment.deploy(arch, rng=3)
    >>> outcome = IntelligentAttacker().execute(
    ...     deployment, SuccessiveAttack(break_in_budget=40,
    ...                                  congestion_budget=80), rng=5)
    >>> sum(outcome.broken_per_layer.values()) <= 40
    True
    """

    def __init__(self, disclosure_extension=None) -> None:
        self._one_burst = OneBurstStrategy(disclosure_extension)
        self._successive = SuccessiveStrategy(disclosure_extension)

    def execute(
        self,
        deployment: SOSDeployment,
        attack: Union[OneBurstAttack, SuccessiveAttack],
        rng: SeedLike = None,
    ) -> AttackOutcome:
        """Run the attack; the deployment's node health is mutated in place."""
        if isinstance(attack, SuccessiveAttack):
            return self._successive.execute(deployment, attack, rng)
        if isinstance(attack, OneBurstAttack):
            return self._one_burst.execute(deployment, attack, rng)
        raise ConfigurationError(f"unsupported attack model: {attack!r}")
