"""Executable attack strategies (paper §3.1.1 and Algorithm 1).

These run the intelligent DDoS attacks against a *concrete*
:class:`~repro.sos.deployment.SOSDeployment`: real break-in attempts on real
nodes, real neighbor-table disclosure, real congestion marking. The Monte
Carlo validator averages their outcomes to cross-check the average-case
analytical model in :mod:`repro.core`.

Both strategies share the two-phase shape:

1. a break-in phase that fills an :class:`AttackerKnowledge` (one uniform
   burst for :class:`OneBurstStrategy`; ``R`` quota-driven rounds following
   Algorithm 1's four cases for :class:`SuccessiveStrategy`);
2. a congestion phase that floods every disclosed-but-not-broken node and
   spends any surplus uniformly over the remaining overlay (filters are
   congested only upon disclosure, never at random).

Both phases work on the deployment's columns, not on node views: a batch
of break-ins draws its uniforms as one ``rng.random(k)``, compromises the
successes with one health write, reads their tables from the neighbor
matrix and absorbs the disclosures into the knowledge sets in one pass;
the congestion phase draws its random targets from a mask over the sorted
overlay ids and floods them with one health write per store; the outcome
census reads the health column over each layer's rows. Every RNG draw is
the one the node-by-node formulation made, in the same order, so Monte
Carlo estimates are bit-identical to it. The one per-attempt loop left is
the ``disclosure_extension`` path (:mod:`repro.attacks.monitoring`),
whose extension draws between attempts.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Set, Tuple

import numpy as np

from repro.attacks.knowledge import AttackerKnowledge
from repro.attacks.outcome import AttackOutcome
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.errors import ConfigurationError
from repro.overlay.arrays import HEALTH_COMPROMISED, HEALTH_CONGESTED, OverlayStore
from repro.perf.compiled import choice_rows
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import SeedLike, make_rng


def _sample(rng, pool: Sequence[int], count: int) -> np.ndarray:
    """Uniformly sample ``count`` distinct ids from ``pool``, in draw order."""
    ids = np.asarray(pool, dtype=np.int64)
    count = min(count, len(ids))
    if count <= 0:
        return ids[:0]
    return ids[choice_rows(rng, len(ids), count, 1)[0]]


def _overlay_pool(deployment: SOSDeployment, excluded: Set[int]) -> np.ndarray:
    """Overlay identifiers in ascending order, minus ``excluded``."""
    store = deployment.network.store
    if not excluded:
        return store.sorted_ids
    keep = np.ones(len(store), dtype=bool)
    keep[
        store.sorted_positions(
            np.fromiter(excluded, dtype=np.int64, count=len(excluded))
        )
    ] = False
    return store.sorted_ids[keep]


def _compromise(
    deployment: SOSDeployment, node_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Break into overlay ``node_ids`` (one health write); returns the
    ``(overlay ids, filter ids)`` their neighbor tables disclose."""
    store = deployment.network.store
    rows = store.rows_of(node_ids)
    store.set_health_many(rows, HEALTH_COMPROMISED)
    width = int(store.neighbor_len[rows].max(initial=0))
    disclosed = store.neighbor_matrix(rows, width).ravel()
    disclosed = disclosed[disclosed >= 0]
    is_filter = deployment.filters.contains_many(disclosed)
    return disclosed[~is_filter], disclosed[is_filter]


def _attempt_break_ins(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    node_ids: Sequence[int],
    p_b: float,
    rng,
    disclosure_extension=None,
) -> int:
    """Try to break into each node; absorb disclosures. Returns attempts.

    The attempt uniforms are one ``rng.random(k)`` draw — the same stream
    as ``k`` scalar draws — and the successes are compromised, read and
    absorbed in bulk, which leaves the knowledge sets exactly as the
    attempt-by-attempt loop would.

    ``disclosure_extension(deployment, node_id, rng)``, when given, returns
    extra overlay identifiers the attacker learns from a compromised node
    beyond its neighbor table (e.g. upstream nodes observed via traffic
    monitoring — see :mod:`repro.attacks.monitoring`). It draws between
    attempts, so that path keeps one draw per attempt in attempt order.
    """
    targets = np.asarray(node_ids, dtype=np.int64)
    if disclosure_extension is None:
        broken = targets[rng.random(len(targets)) < p_b]
        overlay_ids, filter_ids = _compromise(deployment, broken)
        knowledge.absorb_break_ins(
            targets.tolist(),
            broken.tolist(),
            overlay_ids.tolist(),
            filter_ids.tolist(),
        )
        return len(targets)
    for node_id in targets.tolist():
        if not rng.random() < p_b:
            knowledge.absorb_break_ins([node_id], [])
            continue
        overlay_ids, filter_ids = _compromise(
            deployment, np.array([node_id], dtype=np.int64)
        )
        learned = overlay_ids.tolist()
        learned.extend(disclosure_extension(deployment, node_id, rng))
        knowledge.absorb_break_ins(
            [node_id], [node_id], learned, filter_ids.tolist()
        )
    return len(targets)


def _random_break_in_pool(
    deployment: SOSDeployment, knowledge: AttackerKnowledge
) -> np.ndarray:
    """Overlay nodes eligible for random break-in attempts.

    Mirrors Eq. (11)'s pool: the whole overlay minus everything already
    attempted and minus currently known (those are attacked deliberately).
    """
    return _overlay_pool(
        deployment, knowledge.attempted | knowledge.known_unattacked
    )


def _congest(store: OverlayStore, node_ids: np.ndarray) -> None:
    """Flood ``node_ids`` in one health write; compromised nodes stay
    compromised (the attacker never wastes congestion on nodes it owns)."""
    rows = store.rows_of(node_ids)
    store.set_health_many(
        rows[store.health[rows] != HEALTH_COMPROMISED], HEALTH_CONGESTED
    )


def _congestion_phase(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    budget: int,
    rng,
) -> int:
    """Flood disclosed nodes first, then random overlay nodes. Returns spend."""
    targets = knowledge.congestion_targets
    overlay_targets = np.array(sorted(targets), dtype=np.int64)
    filter_targets = np.array(
        sorted(knowledge.congestion_filter_targets), dtype=np.int64
    )
    surplus = budget - len(overlay_targets) - len(filter_targets)
    if surplus > 0:
        pool = _overlay_pool(deployment, knowledge.broken | targets)
        overlay_targets = np.concatenate(
            [overlay_targets, _sample(rng, pool, surplus)]
        )
    elif surplus < 0:
        chosen = _sample(
            rng, np.concatenate([overlay_targets, filter_targets]), budget
        )
        is_filter = deployment.filters.contains_many(chosen)
        overlay_targets, filter_targets = chosen[~is_filter], chosen[is_filter]
    _congest(deployment.network.store, overlay_targets)
    _congest(deployment.filters.store, filter_targets)
    return len(overlay_targets) + len(filter_targets)


def _outcome(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    rounds: int,
    attempts: int,
    congestion_spent: int,
) -> AttackOutcome:
    broken = {}
    congested = {}
    for layer in range(1, deployment.architecture.layers + 2):
        codes = deployment.member_health(layer)
        broken[layer] = int(np.count_nonzero(codes == HEALTH_COMPROMISED))
        congested[layer] = int(np.count_nonzero(codes == HEALTH_CONGESTED))
    return AttackOutcome(
        broken_per_layer=broken,
        congested_per_layer=congested,
        rounds_executed=rounds,
        break_in_attempts=attempts,
        congestion_spent=congestion_spent,
        knowledge=knowledge,
    )


def _break_in_budget(
    deployment: SOSDeployment, attack: "OneBurstAttack | SuccessiveAttack"
) -> int:
    n_t = int(round(attack.n_t))
    if n_t > len(deployment.network):
        raise ConfigurationError(
            f"break-in budget {n_t} exceeds overlay size "
            f"{len(deployment.network)}"
        )
    return n_t


def learn_prior_knowledge(
    deployment: SOSDeployment, knowledge: AttackerKnowledge, p_e: float, rng
) -> None:
    """Round 0 of Algorithm 1: the attacker knows a ``P_E`` fraction of
    the first layer before attacking."""
    first_layer = deployment.member_array(1)
    count = int(round(p_e * len(first_layer)))
    knowledge.learn_prior(_sample(rng, first_layer, count).tolist())


class OneBurstStrategy:
    """One burst of uniform break-ins, then targeted congestion (§3.1.1).

    ``disclosure_extension`` augments what a compromised node reveals; see
    :func:`_attempt_break_ins`.
    """

    def __init__(self, disclosure_extension=None) -> None:
        self._disclosure_extension = disclosure_extension

    def execute(
        self,
        deployment: SOSDeployment,
        attack: OneBurstAttack,
        rng: SeedLike = None,
    ) -> AttackOutcome:
        generator = make_rng(rng)
        n_t = _break_in_budget(deployment, attack)
        knowledge = AttackerKnowledge()
        targets = _sample(generator, deployment.network.store.sorted_ids, n_t)
        attempts = _attempt_break_ins(
            deployment, knowledge, targets, attack.p_b, generator,
            disclosure_extension=self._disclosure_extension,
        )
        spent = _congestion_phase(
            deployment, knowledge, int(round(attack.n_c)), generator
        )
        return _outcome(deployment, knowledge, 1, attempts, spent)


class SuccessiveStrategy:
    """Algorithm 1: prior knowledge plus ``R`` quota-driven break-in rounds.

    ``on_round_end``, when given, is called as ``on_round_end(deployment,
    knowledge, round_index)`` after every break-in round — the hook the
    dynamic-repair extension (:mod:`repro.repair`) uses to let the defender
    act between rounds, as the paper's future-work section envisions.

    ``disclosure_extension`` augments what a compromised node reveals; see
    :func:`_attempt_break_ins`.
    """

    def __init__(self, disclosure_extension=None) -> None:
        self._disclosure_extension = disclosure_extension

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
            lambda budget: even_quotas(budget, attack.rounds),
            rng,
            on_round_end=on_round_end,
            disclosure_extension=self._disclosure_extension,
        )


def execute_successive(
    deployment: SOSDeployment,
    attack: SuccessiveAttack,
    quotas: Callable[[int], List[int]],
    rng: SeedLike = None,
    on_round_end=None,
    disclosure_extension=None,
) -> AttackOutcome:
    """Algorithm 1 under any quota schedule: prior knowledge, one
    :func:`break_in_round` per quota in ``quotas(N_T)`` (until the budget
    runs out), then the congestion phase. Shared by
    :class:`SuccessiveStrategy` (even quotas) and the schedule variants in
    :mod:`repro.attacks.variants`."""
    generator = make_rng(rng)
    schedule = quotas(_break_in_budget(deployment, attack))
    budget = int(sum(schedule))
    knowledge = AttackerKnowledge()
    learn_prior_knowledge(deployment, knowledge, attack.p_e, generator)
    attempts = 0
    rounds_executed = 0
    for quota in schedule:
        rounds_executed += 1
        spent, budget, stop = break_in_round(
            deployment, knowledge, quota, budget, attack.p_b, generator,
            disclosure_extension=disclosure_extension,
        )
        attempts += spent
        if on_round_end is not None:
            on_round_end(deployment, knowledge, rounds_executed)
        if stop or budget <= 0:
            break
    spent = _congestion_phase(
        deployment, knowledge, int(round(attack.n_c)), generator
    )
    return _outcome(deployment, knowledge, rounds_executed, attempts, spent)


def even_quotas(budget: int, rounds: int) -> List[int]:
    """Algorithm 1's quotas: integer ``alpha_j`` summing exactly to N_T."""
    return [
        (budget * j) // rounds - (budget * (j - 1)) // rounds
        for j in range(1, rounds + 1)
    ]


def break_in_round(
    deployment: SOSDeployment,
    knowledge: AttackerKnowledge,
    quota: int,
    budget: int,
    p_b: float,
    generator,
    disclosure_extension=None,
) -> Tuple[int, int, bool]:
    """One break-in round of Algorithm 1: ``(attempts, budget left, stop)``.

    The four cases follow the paper verbatim with ``alpha`` replaced by
    the round's ``quota``; ``budget`` is the break-in budget still unspent
    (the paper's ``beta``) and ``X_j`` the disclosed-but-unattacked pool.
    """
    known = np.array(sorted(knowledge.known_unattacked), dtype=np.int64)

    def attempt(node_ids: np.ndarray) -> int:
        return _attempt_break_ins(
            deployment, knowledge, node_ids, p_b, generator,
            disclosure_extension=disclosure_extension,
        )

    def with_random(count: int) -> np.ndarray:
        pool = _random_break_in_pool(deployment, knowledge)
        return np.concatenate([known, _sample(generator, pool, count)])

    if len(known) >= budget:
        # Case X_j >= beta: attack a budget-sized subset, forfeit the
        # rest to the congestion phase, and stop.
        attacked = _sample(generator, known, budget)
        knowledge.forfeit(set(known.tolist()) - set(attacked.tolist()))
        return attempt(attacked), 0, True
    if budget <= quota:
        # Case X_j < beta <= alpha: final, budget-limited round.
        return attempt(with_random(budget - len(known))), 0, True
    if len(known) >= quota:
        # Case alpha <= X_j < beta: disclosed nodes exceed the quota.
        return attempt(known), budget - len(known), False
    # General case X_j < alpha < beta.
    return attempt(with_random(quota - len(known))), budget - quota, False
