"""Successive-attack schedule variants (§3.2.1's "other variations").

The paper fixes the per-round quota at ``alpha = N_T / R`` and asserts its
model "is representative enough" of other successive schedules. These
variants make that claim testable by re-running Algorithm 1's case logic
under different quota schedules:

* :class:`ScheduledSuccessiveStrategy` — arbitrary per-round weights;
* :func:`front_loaded_weights` — geometric decay (spend hard early, keep a
  reserve for disclosed stragglers);
* :func:`back_loaded_weights` — the mirror image (probe first, strike
  late);
* :func:`compare_schedules` — damage comparison over matched trials, used
  by the ``abl-variants`` experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.attacks.outcome import AttackOutcome
from repro.attacks.strategies import execute_successive
from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import SuccessiveAttack
from repro.errors import ConfigurationError
from repro.overlay.network import OverlayNetwork
from repro.sos.deployment import SOSDeployment
from repro.sos.protocol import SOSProtocol
from repro.utils.seeding import SeedLike, SeedSequenceFactory


def front_loaded_weights(rounds: int, decay: float = 0.5) -> List[float]:
    """Geometric weights ``1, decay, decay^2, ...`` (spend early)."""
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    if not 0.0 < decay <= 1.0:
        raise ConfigurationError("decay must be in (0, 1]")
    return [decay**j for j in range(rounds)]


def back_loaded_weights(rounds: int, decay: float = 0.5) -> List[float]:
    """Mirror of :func:`front_loaded_weights` (spend late)."""
    return list(reversed(front_loaded_weights(rounds, decay)))


def quotas_from_weights(budget: int, weights: Sequence[float]) -> List[int]:
    """Integer quotas proportional to ``weights`` summing exactly to
    ``budget`` (largest-remainder rounding)."""
    if not weights or any(w < 0 for w in weights):
        raise ConfigurationError("weights must be non-empty and non-negative")
    total = float(sum(weights))
    if total <= 0:
        raise ConfigurationError("weights must have positive sum")
    raw = [budget * w / total for w in weights]
    floors = [int(r) for r in raw]
    leftover = budget - sum(floors)
    # Ties go to later rounds so equal weights reproduce Algorithm 1's
    # even_quotas exactly (the paper gives the remainder to the tail).
    order = sorted(
        range(len(raw)), key=lambda i: (raw[i] - floors[i], i), reverse=True
    )
    for index in order[:leftover]:
        floors[index] += 1
    return floors


class ScheduledSuccessiveStrategy:
    """Algorithm 1 under an arbitrary per-round quota schedule."""

    def __init__(
        self,
        weights: Sequence[float],
        disclosure_extension=None,
    ) -> None:
        self.weights = list(weights)
        self._disclosure_extension = disclosure_extension
        quotas_from_weights(100, self.weights)  # validate eagerly

    def execute(
        self,
        deployment: SOSDeployment,
        attack: SuccessiveAttack,
        rng: SeedLike = None,
        on_round_end=None,
    ) -> AttackOutcome:
        return execute_successive(
            deployment,
            attack,
            lambda budget: quotas_from_weights(budget, self.weights),
            rng,
            on_round_end=on_round_end,
            disclosure_extension=self._disclosure_extension,
        )


def compare_schedules(
    architecture: SOSArchitecture,
    attack: SuccessiveAttack,
    trials: int = 40,
    clients_per_trial: int = 4,
    seed: Optional[int] = None,
) -> Dict[str, float]:
    """Mean client success per quota schedule, over matched deployments.

    Schedules compared: the paper's even split, front-loaded, back-loaded,
    and everything-in-round-one (the one-burst limit of the schedule
    space).
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    schedules = {
        "even (paper)": ScheduledSuccessiveStrategy([1.0] * attack.rounds),
        "front-loaded": ScheduledSuccessiveStrategy(
            front_loaded_weights(attack.rounds)
        ),
        "back-loaded": ScheduledSuccessiveStrategy(
            back_loaded_weights(attack.rounds)
        ),
        "one-burst limit": ScheduledSuccessiveStrategy(
            [1.0] + [0.0] * (attack.rounds - 1)
        ),
    }
    results: Dict[str, float] = {}
    for name, strategy in schedules.items():
        factory = SeedSequenceFactory(seed)
        network = OverlayNetwork(
            architecture.total_overlay_nodes, rng=factory.generator()
        )
        hits = 0
        probes = 0
        for _ in range(trials):
            trial_rng = factory.generator()
            deployment = SOSDeployment.deploy(
                architecture, network=network, rng=trial_rng
            )
            strategy.execute(deployment, attack, rng=trial_rng)
            protocol = SOSProtocol(deployment)
            for _ in range(clients_per_trial):
                contacts = deployment.sample_client_contacts(trial_rng)
                hits += int(
                    protocol.send("c", "t", contacts=contacts, rng=trial_rng)
                    .delivered
                )
                probes += 1
        results[name] = hits / probes
    return results
