"""Mapping physical attacker resources onto the paper's abstract budgets.

The analytical model takes ``N_C`` (nodes congestable) and ``N_T``
(break-in attempts) as given. Real adversaries have a *bandwidth* (packets
per second across a botnet) and a *campaign* (exploit attempts per unit
time over a window). This module converts between the two, using the same
token-bucket congestion semantics as the packet-level simulator, so design
studies can be phrased in operational units:

* a node with processing capacity ``c`` pps and legitimate load ``lam``
  pps is *congested* (drop rate >= ``theta``) once total arrivals reach
  ``c / (1 - theta)``, i.e. the attacker must add
  ``a >= c / (1 - theta) - lam`` pps of flood;
* an attacker with ``B`` pps therefore congests ``N_C = floor(B / a)``
  nodes simultaneously;
* a break-in campaign of ``r`` attempts per unit time sustained for ``T``
  yields ``N_T = floor(r * T)`` attempts.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.attack_models import SuccessiveAttack
from repro.errors import ConfigurationError
from repro.utils.validation import check_non_negative, check_positive


@dataclasses.dataclass(frozen=True)
class CongestionCostModel:
    """Per-node flood cost under token-bucket congestion semantics.

    Attributes
    ----------
    node_capacity:
        Packets per second a node can process (``c``).
    legitimate_rate:
        Background legitimate load per node (``lam``).
    congestion_threshold:
        Drop-rate fraction at which the node counts as congested
        (``theta``; matches the packet engine's 0.5 congestion rule).
    """

    node_capacity: float = 100.0
    legitimate_rate: float = 10.0
    congestion_threshold: float = 0.5

    def __post_init__(self) -> None:
        check_positive("node_capacity", self.node_capacity)
        check_non_negative("legitimate_rate", self.legitimate_rate)
        if not 0.0 < self.congestion_threshold < 1.0:
            raise ConfigurationError(
                "congestion_threshold must be in (0, 1), got "
                f"{self.congestion_threshold!r}"
            )

    @property
    def required_flood_rate(self) -> float:
        """Flood pps needed to congest one node (``a`` above)."""
        return max(
            0.0,
            self.node_capacity / (1.0 - self.congestion_threshold)
            - self.legitimate_rate,
        )

    def nodes_congestable(self, bandwidth: float) -> int:
        """``N_C`` an attacker with ``bandwidth`` pps can sustain."""
        check_non_negative("bandwidth", bandwidth)
        rate = self.required_flood_rate
        if rate <= 0.0:
            raise ConfigurationError(
                "nodes are congested by legitimate load alone; "
                "increase node_capacity or lower legitimate_rate"
            )
        return math.floor(bandwidth / rate)


@dataclasses.dataclass(frozen=True)
class BreakInCampaign:
    """Break-in attempt budget from a rate-and-duration campaign.

    Attributes
    ----------
    attempts_per_hour:
        Exploitation throughput of the intrusion crew.
    duration_hours:
        Campaign window before the operation is burned.
    """

    attempts_per_hour: float = 10.0
    duration_hours: float = 20.0

    def __post_init__(self) -> None:
        check_non_negative("attempts_per_hour", self.attempts_per_hour)
        check_non_negative("duration_hours", self.duration_hours)

    @property
    def total_attempts(self) -> int:
        """``N_T`` over the whole campaign."""
        return math.floor(self.attempts_per_hour * self.duration_hours)


def attack_from_resources(
    bandwidth: float,
    campaign: BreakInCampaign = BreakInCampaign(),
    cost_model: CongestionCostModel = CongestionCostModel(),
    rounds: int = 3,
    break_in_success: float = 0.5,
    prior_knowledge: float = 0.0,
) -> SuccessiveAttack:
    """Build a :class:`SuccessiveAttack` from operational attacker resources.

    Examples
    --------
    >>> attack = attack_from_resources(bandwidth=380_000.0)
    >>> attack.congestion_budget  # 380k pps / 190 pps-per-node
    2000
    >>> attack.break_in_budget    # 10 attempts/h * 20 h
    200
    """
    return SuccessiveAttack(
        break_in_budget=campaign.total_attempts,
        congestion_budget=cost_model.nodes_congestable(bandwidth),
        break_in_success=break_in_success,
        rounds=rounds,
        prior_knowledge=prior_knowledge,
    )
