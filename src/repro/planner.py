"""Defense planning: from attacker intelligence to an operated posture.

Composes the library's layers into the question an operator actually has:
*given what we know about the attacker and our hardware, what should we
deploy, and how good must our monitoring be?*

1. :class:`repro.core.budget` converts attacker bandwidth and intrusion
   tempo into the model's ``N_C`` / ``N_T``;
2. :mod:`repro.core.design_space` picks the best architecture for that
   attack;
3. :func:`required_detection` inverts the §5 repair model: the minimum
   per-round detection probability whose repaired ``P_S`` reaches the
   operator's availability target (binary search over the monotone
   average-case model);
4. :func:`plan_defense` bundles it into a :class:`DefensePlan` report.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import SuccessiveAttack
from repro.core.budget import BreakInCampaign, CongestionCostModel
from repro.core.design_space import enumerate_designs, evaluate_designs
from repro.core.latency import latency_availability_tradeoff
from repro.core.model import evaluate
from repro.errors import ConfigurationError
from repro.core.successive import analyze_successive_with_repair


def required_detection(
    architecture: SOSArchitecture,
    attack: SuccessiveAttack,
    target_p_s: float,
    tolerance: float = 1e-4,
    final_scan: bool = False,
) -> Optional[float]:
    """Minimum per-round detection probability reaching ``target_p_s``.

    The target is evaluated at the attack's *peak*: the defender scans
    between break-in rounds, but the final congestion wave has just landed
    (``final_scan=False``). That is the moment availability is worst and
    the guarantee that matters; with ``final_scan=True`` the question
    becomes post-attack recovery, where perfect detection trivially
    restores everything.

    Uses the average-case repair model, which is monotone in the detection
    probability; binary search converges to ``tolerance``. Returns 0.0
    when no repair is needed, ``None`` when even perfect per-round
    detection cannot hold the target through the congestion wave.

    Examples
    --------
    >>> from repro.core import SOSArchitecture, SuccessiveAttack
    >>> rho = required_detection(
    ...     SOSArchitecture(layers=4, mapping="one-to-two"),
    ...     SuccessiveAttack(), target_p_s=0.8)
    >>> 0.0 < rho < 1.0
    True
    """
    if not 0.0 <= target_p_s <= 1.0:
        raise ConfigurationError("target_p_s must be in [0, 1]")
    if not 0.0 < tolerance < 0.1:
        raise ConfigurationError("tolerance must be in (0, 0.1)")

    def repaired(rho: float) -> float:
        return analyze_successive_with_repair(
            architecture, attack, rho, final_scan=final_scan
        ).p_s

    if evaluate(architecture, attack).p_s >= target_p_s:
        return 0.0
    if repaired(1.0) < target_p_s:
        return None
    low, high = 0.0, 1.0
    while high - low > tolerance:
        mid = (low + high) / 2
        if repaired(mid) >= target_p_s:
            high = mid
        else:
            low = mid
    return high


@dataclasses.dataclass(frozen=True)
class DefensePlan:
    """The planner's recommendation and its supporting numbers."""

    attack: SuccessiveAttack
    architecture: SOSArchitecture
    unrepaired_p_s: float
    target_p_s: float
    required_detection: Optional[float]
    expected_latency: float
    baseline_latency: float

    @property
    def achievable(self) -> bool:
        """True when the availability target is reachable at all."""
        return self.required_detection is not None

    @property
    def needs_repair(self) -> bool:
        return self.achievable and self.required_detection > 0.0

    def summary(self) -> str:
        lines = [
            f"anticipated attack : N_T={self.attack.n_t:g} over "
            f"R={self.attack.rounds} rounds, N_C={self.attack.n_c:g}, "
            f"P_B={self.attack.p_b:g}, P_E={self.attack.p_e:g}",
            f"recommended design : {self.architecture.describe()}",
            f"P_S without repair : {self.unrepaired_p_s:.4f}",
            f"availability target: {self.target_p_s:.4f}",
        ]
        if not self.achievable:
            lines.append(
                "verdict            : UNACHIEVABLE even with perfect "
                "per-round repair; provision capacity or add nodes"
            )
        elif self.needs_repair:
            lines.append(
                f"verdict            : needs per-round detection >= "
                f"{self.required_detection:.3f}"
            )
        else:
            lines.append("verdict            : met without repair")
        lines.append(
            f"expected latency   : {self.expected_latency:.2f} hop-units "
            f"(baseline {self.baseline_latency:.2f})"
        )
        return "\n".join(lines)


def plan_defense(
    attacker_bandwidth: float,
    campaign: BreakInCampaign = BreakInCampaign(),
    cost_model: CongestionCostModel = CongestionCostModel(),
    target_p_s: float = 0.9,
    prior_knowledge: float = 0.2,
    rounds: int = 3,
    break_in_success: float = 0.5,
    layers: Sequence[int] = range(1, 9),
    total_overlay_nodes: int = 10_000,
    sos_nodes: int = 100,
    filters: int = 10,
) -> DefensePlan:
    """Produce a full defense plan from operational attacker estimates."""
    attack = SuccessiveAttack(
        break_in_budget=campaign.total_attempts,
        congestion_budget=cost_model.nodes_congestable(attacker_bandwidth),
        break_in_success=break_in_success,
        rounds=rounds,
        prior_knowledge=prior_knowledge,
    )
    designs = enumerate_designs(
        layers=layers,
        distributions=("even", "increasing"),
        total_overlay_nodes=total_overlay_nodes,
        sos_nodes=sos_nodes,
        filters=filters,
    )
    best = evaluate_designs(designs, {"anticipated": attack})[0]
    latency = latency_availability_tradeoff([best.architecture], attack)[0]
    return DefensePlan(
        attack=attack,
        architecture=best.architecture,
        unrepaired_p_s=best.aggregate,
        target_p_s=target_p_s,
        required_detection=required_detection(
            best.architecture, attack, target_p_s
        ),
        expected_latency=latency.expected_latency,
        baseline_latency=latency.baseline_latency,
    )
