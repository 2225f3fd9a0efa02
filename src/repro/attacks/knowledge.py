"""The attacker's knowledge base.

Tracks exactly what the paper's intelligent attacker learns while the
attack unfolds (Fig. 5's node demarcation, as live sets instead of
average-case sizes):

* ``known_unattacked`` — disclosed SOS nodes not yet subjected to a
  break-in attempt (the paper's ``d^N`` pool feeding ``X_{j+1}``);
* ``attempted`` — every node a break-in was ever tried on (``h`` sets);
* ``broken`` — successfully compromised nodes (``b`` sets);
* ``disclosed`` — every overlay node whose SOS membership the attacker has
  learned, by prior knowledge or by reading a compromised node's table;
* ``disclosed_filters`` — leaked filter identities (``d_{L+1}^N``), kept
  separate because filters can only be congested, never broken into.
"""

from __future__ import annotations

from typing import Iterable, Set


class AttackerKnowledge:
    """Mutable attacker state across break-in rounds."""

    def __init__(self) -> None:
        self.known_unattacked: Set[int] = set()
        self.attempted: Set[int] = set()
        self.broken: Set[int] = set()
        self.disclosed: Set[int] = set()
        self.disclosed_filters: Set[int] = set()
        self.forfeited: Set[int] = set()

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def learn_prior(self, node_ids: Iterable[int]) -> None:
        """Absorb pre-attack knowledge (``P_E`` fraction of layer 1)."""
        for node_id in node_ids:
            self.disclosed.add(node_id)
            if node_id not in self.attempted:
                self.known_unattacked.add(node_id)

    def learn_disclosure(
        self, node_ids: Iterable[int], filter_ids: Iterable[int] = ()
    ) -> None:
        """Absorb a compromised node's neighbor table.

        Overlap discounting is automatic: nodes already attempted never
        re-enter the attack pool, and duplicates collapse in the sets.
        """
        for node_id in node_ids:
            self.disclosed.add(node_id)
            if node_id not in self.attempted:
                self.known_unattacked.add(node_id)
        for filter_id in filter_ids:
            self.disclosed_filters.add(filter_id)

    # ------------------------------------------------------------------
    # Attack bookkeeping
    # ------------------------------------------------------------------
    def record_attempt(self, node_id: int, success: bool) -> None:
        """Mark a break-in attempt and its outcome."""
        self.attempted.add(node_id)
        self.known_unattacked.discard(node_id)
        if success:
            self.broken.add(node_id)

    def absorb_break_ins(
        self,
        attempted: Iterable[int],
        broken: Iterable[int],
        disclosed: Iterable[int] = (),
        disclosed_filters: Iterable[int] = (),
    ) -> None:
        """Absorb one batch of break-in attempts in bulk.

        ``broken`` are the successful attempts; ``disclosed`` and
        ``disclosed_filters`` are what their neighbor tables revealed.
        The sets end exactly as :meth:`record_attempt` per attempt plus
        :meth:`learn_disclosure` per success would leave them: a node
        disclosed by one attempt and attacked by a later one of the same
        batch is attempted, not known-unattacked.
        """
        attempted = set(attempted)
        self.attempted |= attempted
        self.known_unattacked -= attempted
        self.broken.update(broken)
        disclosed = set(disclosed)
        self.disclosed |= disclosed
        self.known_unattacked |= disclosed - self.attempted
        self.disclosed_filters.update(disclosed_filters)

    def forfeit(self, node_ids: Iterable[int]) -> None:
        """Give up on disclosed nodes when the break-in budget runs out
        (the paper's ``f_{i,j}`` — congested instead of attacked)."""
        for node_id in node_ids:
            self.known_unattacked.discard(node_id)
            self.forfeited.add(node_id)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def congestion_targets(self) -> Set[int]:
        """Disclosed-but-not-broken overlay nodes (the paper's ``N_D`` pool,
        excluding filters, which are returned separately)."""
        return (self.disclosed | self.forfeited) - self.broken

    @property
    def congestion_filter_targets(self) -> Set[int]:
        return set(self.disclosed_filters)

    def snapshot(self) -> dict:
        """Sizes of all sets, for diagnostics and tests."""
        return {
            "known_unattacked": len(self.known_unattacked),
            "attempted": len(self.attempted),
            "broken": len(self.broken),
            "disclosed": len(self.disclosed),
            "disclosed_filters": len(self.disclosed_filters),
            "forfeited": len(self.forfeited),
        }
