"""Intelligent DDoS attack specifications (Section 3 of the paper).

Both attack models share a two-phase structure:

1. **break-in phase** — the attacker attempts to compromise ``break_in_budget``
   (``N_T``) nodes; each attempt succeeds independently with probability
   ``break_in_success`` (``P_B``). Breaking into a node *discloses* its
   neighbor table (the identities of its ``m_{i+1}`` next-layer neighbors).
2. **congestion phase** — the attacker congests ``congestion_budget``
   (``N_C``) nodes, preferring disclosed-but-not-broken-in nodes and
   spending any surplus on random overlay nodes.

:class:`OneBurstAttack` spends all break-in resources in a single round with
no prior knowledge (§3.1). :class:`SuccessiveAttack` adds ``rounds`` (``R``)
successive break-in rounds and ``prior_knowledge`` (``P_E``), the fraction
of first-layer nodes known to the attacker before the attack (§3.2); with
``rounds = 1`` and ``prior_knowledge = 0`` it degenerates to the one-burst
model, which the test suite verifies.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError
from repro.utils.validation import (
    check_non_negative,
    check_positive_int,
    check_probability,
)

#: Default attack parameters used by the paper's successive-attack plots.
DEFAULT_BREAK_IN_BUDGET = 200
DEFAULT_CONGESTION_BUDGET = 2_000
DEFAULT_BREAK_IN_SUCCESS = 0.5
DEFAULT_ROUNDS = 3
DEFAULT_PRIOR_KNOWLEDGE = 0.2

#: Largest ``SuccessiveAttack.rounds``. Every evaluation and every executed
#: trial runs up to ``R`` rounds, so one field would otherwise set an
#: unbounded amount of work; the paper's sweeps stop at ``R = 8``.
MAX_ROUNDS = 100


@dataclasses.dataclass(frozen=True)
class AttackModel:
    """Common resources for both attack models.

    Attributes
    ----------
    break_in_budget:
        ``N_T`` — number of break-in attempts available.
    congestion_budget:
        ``N_C`` — number of nodes the attacker can congest.
    break_in_success:
        ``P_B`` — per-attempt break-in success probability.
    """

    break_in_budget: float = DEFAULT_BREAK_IN_BUDGET
    congestion_budget: float = DEFAULT_CONGESTION_BUDGET
    break_in_success: float = DEFAULT_BREAK_IN_SUCCESS

    def __post_init__(self) -> None:
        check_non_negative("break_in_budget", self.break_in_budget)
        check_non_negative("congestion_budget", self.congestion_budget)
        check_probability("break_in_success", self.break_in_success)

    @property
    def n_t(self) -> float:
        """Alias for ``break_in_budget`` using the paper's symbol ``N_T``."""
        return float(self.break_in_budget)

    @property
    def n_c(self) -> float:
        """Alias for ``congestion_budget`` using the paper's symbol ``N_C``."""
        return float(self.congestion_budget)

    @property
    def p_b(self) -> float:
        """Alias for ``break_in_success`` using the paper's symbol ``P_B``."""
        return float(self.break_in_success)


@dataclasses.dataclass(frozen=True)
class OneBurstAttack(AttackModel):
    """One-burst attack (§3.1): a single break-in round, no prior knowledge.

    Examples
    --------
    >>> attack = OneBurstAttack(break_in_budget=200, congestion_budget=2000)
    >>> attack.n_t, attack.n_c, attack.p_b
    (200.0, 2000.0, 0.5)
    """


@dataclasses.dataclass(frozen=True)
class SuccessiveAttack(AttackModel):
    """Successive attack (§3.2): ``R`` break-in rounds plus prior knowledge.

    Attributes
    ----------
    rounds:
        ``R`` — number of successive break-in rounds; each round has a
        minimum quota ``alpha = N_T / R``.
    prior_knowledge:
        ``P_E`` — fraction of first-layer nodes the attacker already knows.

    Examples
    --------
    >>> attack = SuccessiveAttack(rounds=3, prior_knowledge=0.2)
    >>> attack.alpha  # per-round quota N_T / R
    66.66666666666667
    """

    rounds: int = DEFAULT_ROUNDS
    prior_knowledge: float = DEFAULT_PRIOR_KNOWLEDGE

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive_int("rounds", self.rounds)
        if self.rounds > MAX_ROUNDS:
            raise ConfigurationError(
                f"rounds must be <= {MAX_ROUNDS}, got {self.rounds}"
            )
        check_probability("prior_knowledge", self.prior_knowledge)

    @property
    def r(self) -> int:
        """Alias for ``rounds`` using the paper's symbol ``R``."""
        return self.rounds

    @property
    def p_e(self) -> float:
        """Alias for ``prior_knowledge`` using the paper's symbol ``P_E``."""
        return float(self.prior_knowledge)

    @property
    def alpha(self) -> float:
        """Per-round break-in quota ``alpha = N_T / R`` (Algorithm 1)."""
        return self.n_t / self.rounds
