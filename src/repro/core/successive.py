"""Successive intelligent-attack analysis (Section 3.2, Eqs. 10-27).

The attacker knows a fraction ``P_E`` of the first-layer nodes up front and
spreads its break-in budget ``N_T`` over ``R`` rounds (Algorithm 1). Each
round it attacks every node disclosed in the previous round plus, if the
round quota ``alpha = N_T / R`` is not exhausted, randomly chosen overlay
nodes. Successful break-ins disclose next-layer neighbor tables, feeding the
next round. When the break-in budget runs out, the congestion phase floods
every disclosed-but-not-broken-in node (and random nodes with any surplus).

Set bookkeeping per layer ``i`` and round ``j`` (paper's Fig. 5):

====================  =======================================================
``h_{i,j}^D``         disclosed nodes attacked this round (Eq. 10/23)
``h_{i,j}^A``         randomly chosen nodes attacked this round (Eq. 11)
``b_{i,j}^D/A``       successfully broken-in among them (Eqs. 13-14)
``u_{i,j}^D/A``       unsuccessfully attacked among them (Eqs. 15-16)
``d_{i,j}^N``         newly disclosed, never attacked (Eqs. 18-19, 24)
``d_{i,j}^A``         disclosed and randomly-attacked-unsuccessfully (Eq. 20)
``f_{i,j}``           disclosed but left unattacked at budget exhaustion
                      (Eq. 21; only at the terminal round)
====================  =======================================================

Algorithm 1 distinguishes four per-round resource cases; all four are
implemented and labeled so tests can pin each branch:

* ``GENERAL``          ``X_j < alpha < beta``  — quota-limited round,
* ``FINAL_BUDGET``     ``X_j < beta <= alpha`` — last round, budget-limited,
* ``DISCLOSED_HEAVY``  ``alpha <= X_j < beta`` — disclosure exceeds quota,
* ``EXHAUSTED``        ``X_j >= beta``         — budget exhausted; leftover
  disclosed nodes become ``f_{i,j}`` and are congested instead.

With ``R = 1`` and ``P_E = 0`` the model degenerates exactly to the
one-burst model of §3.1 (verified by tests).

:func:`analyze_successive_with_repair` runs the same round loop with a
repairing defender scanning between rounds (§5).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Sequence, Tuple

from repro.contracts import ensures, requires_non_negative
from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import SuccessiveAttack
from repro.core.layer_state import LayerState, SystemPerformance, path_availability
from repro.core.probability import clamp, no_fresh_disclosure_probability
from repro.errors import ConfigurationError
from repro.utils.validation import check_probability


class RoundCase(str, enum.Enum):
    """Which branch of Algorithm 1 a round executed."""

    GENERAL = "general"  # X_j < alpha < beta
    FINAL_BUDGET = "final_budget"  # X_j < beta <= alpha
    DISCLOSED_HEAVY = "disclosed_heavy"  # alpha <= X_j < beta
    EXHAUSTED = "exhausted"  # X_j >= beta


@dataclasses.dataclass(frozen=True)
class RoundState:
    """Average-case outcome of one break-in round.

    Arrays are indexed ``0 .. L`` for layers ``1 .. L+1`` (the filter layer
    holds zeros everywhere except ``disclosed_unattacked``).
    """

    round_index: int
    case: RoundCase
    known_at_start: float  # X_j
    budget_before: float  # beta at round start
    attacked_disclosed: Tuple[float, ...]  # h_{i,j}^D
    attacked_random: Tuple[float, ...]  # h_{i,j}^A
    broken_disclosed: Tuple[float, ...]  # b_{i,j}^D
    broken_random: Tuple[float, ...]  # b_{i,j}^A
    survived_disclosed: Tuple[float, ...]  # u_{i,j}^D
    survived_random: Tuple[float, ...]  # u_{i,j}^A
    disclosed_unattacked: Tuple[float, ...]  # d_{i,j}^N
    disclosed_survived_random: Tuple[float, ...]  # d_{i,j}^A
    forfeited: Tuple[float, ...]  # f_{i,j}

    @property
    def attacked(self) -> Tuple[float, ...]:
        """``h_{i,j} = h_{i,j}^D + h_{i,j}^A`` (Eq. 12)."""
        return tuple(
            d + a for d, a in zip(self.attacked_disclosed, self.attacked_random)
        )

    @property
    def broken_in(self) -> Tuple[float, ...]:
        """``b_{i,j} = b_{i,j}^D + b_{i,j}^A`` (Eq. 17)."""
        return tuple(d + a for d, a in zip(self.broken_disclosed, self.broken_random))


@dataclasses.dataclass(frozen=True)
class SuccessiveBreakdown:
    """Every intermediate quantity of the successive-attack derivation."""

    rounds: Tuple[RoundState, ...]
    congested: Tuple[float, ...]  # c_i
    broken_in: Tuple[float, ...]  # b_i = sum_k b_{i,k}
    disclosed_total: float  # N_D
    broken_in_total: float  # N_B


class _Accumulator:
    """Mutable cross-round state while executing Algorithm 1."""

    def __init__(self, num_layers: int) -> None:
        self.cum_attacked = [0.0] * num_layers  # sum_k h_{i,k}
        self.cum_forfeited = [0.0] * num_layers  # sum_k f_{i,k}
        self.cum_broken = [0.0] * num_layers  # sum_k b_{i,k}
        self.cum_survived_disclosed = [0.0] * num_layers  # sum_k u_{i,k}^D
        self.cum_disclosed_survived_random = [0.0] * num_layers  # sum_k d_{i,k}^A
        self.cum_filter_disclosed = 0.0  # sum_k d_{L+1,k}^N

    def decay(self, keep: float) -> None:
        """Scale every remembered damage set by the surviving fraction."""
        self.cum_attacked = [v * keep for v in self.cum_attacked]
        self.cum_forfeited = [v * keep for v in self.cum_forfeited]
        self.cum_broken = [v * keep for v in self.cum_broken]
        self.cum_survived_disclosed = [
            v * keep for v in self.cum_survived_disclosed
        ]
        self.cum_disclosed_survived_random = [
            v * keep for v in self.cum_disclosed_survived_random
        ]
        self.cum_filter_disclosed *= keep


@requires_non_negative("known", "quota", "budget")
def _classify(known: float, quota: float, budget: float) -> RoundCase:
    """Map (X_j, alpha, beta) onto Algorithm 1's four cases."""
    if known >= budget:
        return RoundCase.EXHAUSTED
    if budget <= quota:
        return RoundCase.FINAL_BUDGET
    if known < quota:
        return RoundCase.GENERAL
    return RoundCase.DISCLOSED_HEAVY


def _random_attempts(
    architecture: SOSArchitecture,
    accumulator: _Accumulator,
    disclosed_prev: List[float],
    known: float,
    spend: float,
) -> List[float]:
    """Distribute ``spend`` random break-in attempts over the layers (Eq. 11).

    The pool is the whole overlay minus currently known disclosed nodes and
    every node attacked in earlier rounds; layer ``i`` receives a share
    proportional to its remaining never-attacked nodes.
    """
    sizes = architecture.layer_sizes_tuple
    total_attacked = sum(accumulator.cum_attacked[: len(sizes)])
    pool = float(architecture.total_overlay_nodes) - known - total_attacked
    attempts = [0.0] * (len(sizes) + 1)
    if spend <= 0.0 or pool <= 0.0:
        return attempts
    for i, size in enumerate(sizes):
        untouched = max(
            0.0, size - disclosed_prev[i] - accumulator.cum_attacked[i]
        )
        attempts[i] = clamp(spend * untouched / pool, 0.0, untouched)
    return attempts


def _disclosures(
    architecture: SOSArchitecture,
    accumulator: _Accumulator,
    round_broken: List[float],
    survived_random: List[float],
) -> Tuple[List[float], List[float]]:
    """Compute ``d_{i,j}^N`` (Eqs. 18-19, 24) and ``d_{i,j}^A`` (Eq. 20).

    Must be called *after* the accumulator has absorbed this round's
    ``h_{i,j}`` and ``f_{i,j}`` (the sums in Eqs. 18/24 run to ``k = j``).
    """
    sizes = architecture.layer_sizes_with_filters
    degrees = architecture.mapping_degrees
    d_n = [0.0] * len(sizes)
    d_a = [0.0] * len(sizes)
    for i in range(1, len(sizes)):
        n_i = sizes[i]
        m_i = degrees[i]
        survive = no_fresh_disclosure_probability(m_i, n_i, round_broken[i - 1])
        touched = accumulator.cum_attacked[i] + accumulator.cum_forfeited[i]
        untouched_fraction = clamp(1.0 - touched / n_i, 0.0, 1.0)
        z = n_i * (1.0 - survive * untouched_fraction)
        d_n[i] = clamp(z - touched, 0.0, n_i)
        d_a[i] = clamp(survived_random[i] * (1.0 - survive), 0.0, n_i)
    return d_n, d_a


def _execute_round(
    architecture: SOSArchitecture,
    attack: SuccessiveAttack,
    accumulator: _Accumulator,
    round_index: int,
    disclosed_prev: List[float],
    budget: float,
) -> Tuple[RoundState, float]:
    """Run one round of Algorithm 1; returns the round state and new budget."""
    num_slots = architecture.layers + 1
    sos = architecture.layers
    known = sum(disclosed_prev[:sos])
    case = _classify(known, attack.alpha, budget)

    forfeited = [0.0] * num_slots
    if case is RoundCase.EXHAUSTED:
        # Break into only a `budget`-sized subset of the disclosed nodes,
        # proportionally per layer; the rest is forfeited to the congestion
        # phase (Eq. 21/23).
        ratio = budget / known if known > 0 else 0.0
        attacked_disclosed = [disclosed_prev[i] * ratio for i in range(sos)] + [0.0]
        forfeited = [
            disclosed_prev[i] - attacked_disclosed[i] for i in range(sos)
        ] + [0.0]
        attacked_random = [0.0] * num_slots
        spent = min(budget, known)
    else:
        attacked_disclosed = list(disclosed_prev[:sos]) + [0.0]
        if case is RoundCase.DISCLOSED_HEAVY:
            attacked_random = [0.0] * num_slots
            spent = known
        else:
            spend_target = attack.alpha if case is RoundCase.GENERAL else budget
            attacked_random = _random_attempts(
                architecture, accumulator, disclosed_prev, known, spend_target - known
            )
            spent = spend_target

    p_b = attack.p_b
    broken_disclosed = [p_b * h for h in attacked_disclosed]
    broken_random = [p_b * h for h in attacked_random]
    survived_disclosed = [(1.0 - p_b) * h for h in attacked_disclosed]
    survived_random = [(1.0 - p_b) * h for h in attacked_random]
    round_broken = [d + a for d, a in zip(broken_disclosed, broken_random)]

    for i in range(num_slots):
        accumulator.cum_attacked[i] += attacked_disclosed[i] + attacked_random[i]
        accumulator.cum_forfeited[i] += forfeited[i]
        accumulator.cum_broken[i] += round_broken[i]
        accumulator.cum_survived_disclosed[i] += survived_disclosed[i]

    d_n, d_a = _disclosures(architecture, accumulator, round_broken, survived_random)
    for i in range(num_slots):
        accumulator.cum_disclosed_survived_random[i] += d_a[i]
    accumulator.cum_filter_disclosed += d_n[-1]

    state = RoundState(
        round_index=round_index,
        case=case,
        known_at_start=known,
        budget_before=budget,
        attacked_disclosed=tuple(attacked_disclosed),
        attacked_random=tuple(attacked_random),
        broken_disclosed=tuple(broken_disclosed),
        broken_random=tuple(broken_random),
        survived_disclosed=tuple(survived_disclosed),
        survived_random=tuple(survived_random),
        disclosed_unattacked=tuple(d_n),
        disclosed_survived_random=tuple(d_a),
        forfeited=tuple(forfeited),
    )
    return state, max(0.0, budget - spent)


def _congestion_phase(
    architecture: SOSArchitecture,
    attack: SuccessiveAttack,
    accumulator: _Accumulator,
    disclosed_unattacked: Sequence[float],
    forfeited: Sequence[float],
) -> Tuple[List[float], float, float]:
    """Allocate the congestion budget (Eqs. 25-27); returns ``(c_i, N_D, N_B)``.

    ``disclosed_unattacked`` and ``forfeited`` are the terminal round's
    ``d^N`` and ``f`` pools.
    """
    sizes = architecture.layer_sizes_with_filters
    sos = architecture.layers
    last = len(sizes) - 1

    # Per-layer disclosed-but-not-broken-in pools (the terms of Eq. 25).
    disclosed = [0.0] * len(sizes)
    for i in range(sos):
        disclosed[i] = (
            accumulator.cum_survived_disclosed[i]
            + disclosed_unattacked[i]
            + accumulator.cum_disclosed_survived_random[i]
            + forfeited[i]
        )
    disclosed[last] = accumulator.cum_filter_disclosed
    n_d = sum(disclosed)
    n_b = sum(accumulator.cum_broken[:sos])

    congested = [0.0] * len(sizes)
    if attack.n_c >= n_d:
        surplus = attack.n_c - n_d
        pool = float(architecture.total_overlay_nodes) - n_b - (n_d - disclosed[last])
        fraction = 0.0 if pool <= 0 else min(1.0, surplus / pool)
        for i in range(sos):
            remaining = max(
                0.0, sizes[i] - accumulator.cum_broken[i] - disclosed[i]
            )
            congested[i] = disclosed[i] + fraction * remaining
        congested[last] = disclosed[last]
    else:
        share = attack.n_c / n_d if n_d > 0 else 0.0
        congested = [share * d for d in disclosed]

    congested = [clamp(c, 0.0, sizes[i]) for i, c in enumerate(congested)]
    return congested, n_d, n_b


def _algorithm_1(
    architecture: SOSArchitecture, attack: SuccessiveAttack, keep: float
) -> SuccessiveBreakdown:
    """Execute Algorithm 1 in the average case.

    After every round a defender scan leaves the fraction ``keep`` of
    each damage set and of the attacker's knowledge; ``keep = 1.0`` is
    the paper's undefended system, and multiplying by 1.0 is exact.
    """
    if attack.n_t > architecture.total_overlay_nodes:
        raise ConfigurationError(
            f"break_in_budget ({attack.n_t}) exceeds overlay population "
            f"({architecture.total_overlay_nodes})"
        )
    num_slots = architecture.layers + 1
    accumulator = _Accumulator(num_slots)

    # Prior knowledge acts as a round-0 disclosure of X_1 = n_1 * P_E nodes,
    # all at the first layer (paper, end of §3.2.2).
    disclosed_prev = [0.0] * num_slots
    disclosed_prev[0] = architecture.layer_sizes_tuple[0] * attack.p_e

    rounds: List[RoundState] = []
    budget = attack.n_t
    for round_index in range(1, attack.rounds + 1):
        state, budget = _execute_round(
            architecture, attack, accumulator, round_index, disclosed_prev, budget
        )
        rounds.append(state)
        accumulator.decay(keep)
        disclosed_prev = [
            keep * v for v in state.disclosed_unattacked[: num_slots - 1]
        ] + [0.0]
        # Layer-1 nodes are never disclosed by break-ins in later rounds.
        disclosed_prev[0] = 0.0
        if state.case in (RoundCase.FINAL_BUDGET, RoundCase.EXHAUSTED):
            break
        if budget <= 0.0:
            break

    # The last scan also thins the terminal round's leftover pools before
    # the congestion phase targets them.
    final_round = rounds[-1]
    congested, n_d, n_b = _congestion_phase(
        architecture,
        attack,
        accumulator,
        [keep * v for v in final_round.disclosed_unattacked],
        [keep * v for v in final_round.forfeited],
    )
    return SuccessiveBreakdown(
        rounds=tuple(rounds),
        congested=tuple(congested),
        broken_in=tuple(accumulator.cum_broken),
        disclosed_total=n_d,
        broken_in_total=n_b,
    )


def analyze_successive_breakdown(
    architecture: SOSArchitecture, attack: SuccessiveAttack
) -> SuccessiveBreakdown:
    """Execute Algorithm 1 in the average case, returning all round states."""
    return _algorithm_1(architecture, attack, keep=1.0)


@ensures(lambda result: 0.0 <= result.p_s <= 1.0, "P_S must lie in [0, 1]")
def analyze_successive(
    architecture: SOSArchitecture, attack: SuccessiveAttack
) -> SystemPerformance:
    """Evaluate ``P_S`` for ``architecture`` under a successive attack.

    Examples
    --------
    >>> from repro.core.architecture import SOSArchitecture
    >>> from repro.core.attack_models import SuccessiveAttack
    >>> arch = SOSArchitecture(layers=4, mapping="one-to-two")
    >>> result = analyze_successive(arch, SuccessiveAttack())
    >>> 0.0 <= result.p_s <= 1.0
    True
    """
    breakdown = analyze_successive_breakdown(architecture, attack)
    sizes = architecture.layer_sizes_with_filters
    degrees = architecture.mapping_degrees
    final_round = breakdown.rounds[-1]
    layers = tuple(
        LayerState(
            index=i + 1,
            size=sizes[i],
            mapping_degree=degrees[i],
            broken_in=breakdown.broken_in[i],
            congested=breakdown.congested[i],
            disclosed_unattacked=final_round.disclosed_unattacked[i],
            disclosed_survived=final_round.disclosed_survived_random[i],
        )
        for i in range(len(sizes))
    )
    return SystemPerformance(
        p_s=path_availability(layers),
        layers=layers,
        broken_in_total=breakdown.broken_in_total,
        disclosed_total=breakdown.disclosed_total,
    )


def analyze_successive_with_repair(
    architecture: SOSArchitecture,
    attack: SuccessiveAttack,
    detection_probability: float,
    final_scan: bool = True,
) -> SystemPerformance:
    """Average-case ``P_S`` with a repairing defender between rounds (§5).

    After each break-in round the defender detects and repairs each bad
    node independently with probability ``rho`` (the detection
    probability). In the average case this multiplies every damage set by
    ``(1 - rho)`` per surviving round, and repaired nodes are re-keyed, so
    the attacker's stale knowledge about them is discounted the same way.
    It complements the Monte Carlo estimator
    (:mod:`repro.repair.estimator`); ``tests/repair/test_analysis.py``
    checks it against the executable defender.

    * The decay applies to broken-in counts, to the disclosed-unattacked
      pool that feeds the next round (``d^N``), and to the accumulated
      congestible sets (``u^D``, ``d^A``, ``f``).
    * The *attempted* history ``h`` is also decayed: a re-keyed node
      looks fresh to the attacker and can be attacked again, so it
      re-enters the random pool.
    * One final scan runs after the congestion phase when
      ``final_scan=True`` (default), matching the MC estimator's
      ``final_scans=1``: the congested sets are then also discounted once.

    With ``rho = 0`` the model reduces exactly to
    :func:`analyze_successive`.

    Examples
    --------
    >>> from repro.core import SOSArchitecture, SuccessiveAttack
    >>> arch = SOSArchitecture(layers=4, mapping="one-to-two")
    >>> weak = analyze_successive_with_repair(arch, SuccessiveAttack(), 0.0)
    >>> strong = analyze_successive_with_repair(arch, SuccessiveAttack(), 0.9)
    >>> strong.p_s >= weak.p_s
    True
    """
    check_probability("detection_probability", detection_probability)
    keep = 1.0 - detection_probability
    breakdown = _algorithm_1(architecture, attack, keep)
    congested = breakdown.congested
    if final_scan:
        congested = tuple(keep * c for c in congested)
    sizes = architecture.layer_sizes_with_filters
    degrees = architecture.mapping_degrees
    layers = tuple(
        LayerState(
            index=i + 1,
            size=sizes[i],
            mapping_degree=degrees[i],
            broken_in=breakdown.broken_in[i],
            congested=congested[i],
        )
        for i in range(len(sizes))
    )
    return SystemPerformance(
        p_s=path_availability(layers),
        layers=layers,
        broken_in_total=breakdown.broken_in_total,
        disclosed_total=breakdown.disclosed_total,
    )
