"""Packet forwarding through a deployed SOS overlay.

:class:`SOSProtocol` implements the paper's routing semantics (§2-3): a
client hands its packet to one of its ``m_1`` access points; each node
verifies that the packet arrived from a legitimate lower-layer node (MAC +
membership), then forwards it to one of its ``m_{i+1}`` next-layer
neighbors, retrying within its table when a chosen neighbor turns out to be
bad. A hop fails only when *every* neighbor in the table is bad — exactly
the per-hop event the analytical model prices as ``P(n_i, s_i, m_i)``.

Two reachability notions are exposed:

* :meth:`send` — forward one packet per the distributed algorithm
  (per-hop retry, no backtracking); matches Eq. (1)'s product form.
* :meth:`path_exists` — global reachability through good nodes (layered
  BFS); an upper bound on :meth:`send` used in validation experiments.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.sos.deployment import SOSDeployment
from repro.sos.packets import DeliveryReceipt, FailureCause, Packet
from repro.utils.seeding import SeedLike, make_rng

if TYPE_CHECKING:  # avoid an sos <-> resilience import cycle at runtime
    from repro.resilience.retry import RetryPolicy


class SOSProtocol:
    """The forwarding plane of a deployed generalized SOS."""

    def __init__(self, deployment: SOSDeployment) -> None:
        self.deployment = deployment

    # ------------------------------------------------------------------
    # Client admission
    # ------------------------------------------------------------------
    def register_client(self, rng: SeedLike = None) -> List[int]:
        """Admit a client and hand it ``m_1`` access-point contacts."""
        return self.deployment.sample_client_contacts(make_rng(rng))

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def send(
        self,
        source: str,
        target: str,
        contacts: Optional[Sequence[int]] = None,
        payload: bytes = b"",
        rng: SeedLike = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> DeliveryReceipt:
        """Forward one packet from ``source`` toward ``target``.

        ``contacts`` is the client's access-point list; omitted, a fresh one
        is sampled (a first-time client). Returns a receipt whose
        ``hop_trail`` contains one node per traversed layer.

        Without a ``retry_policy`` each hop picks uniformly among the
        *good* entries of its table (the seed's omniscient shortcut, the
        semantics Eq. (1) prices). With one, nodes cannot see neighbor
        health: each hop blindly picks untried neighbors under a bounded
        attempt budget with deterministic seeded backoff, and the access
        layer fails over across the client's full ``m_1`` contact list.
        Same seed, same deployment ⇒ identical ``hop_trail`` and retry
        counts.
        """
        generator = make_rng(rng)
        deployment = self.deployment
        arch = deployment.architecture
        packet = Packet(source=source, target=target, payload=payload)
        attempts = 0
        retries = 0
        backoff = 0.0

        def receipt(
            delivered: bool,
            reason: Optional[str] = None,
            cause: Optional[FailureCause] = None,
        ) -> DeliveryReceipt:
            return DeliveryReceipt(
                packet.packet_id,
                delivered=delivered,
                hop_trail=packet.hops,
                failure_reason=reason,
                failure_cause=cause,
                attempts=attempts,
                retries=retries,
                backoff_total=backoff,
            )

        if contacts is None:
            contacts = deployment.sample_client_contacts(generator)
        current_id, stats = self._next_hop(
            contacts, generator, retry_policy, access_layer=True
        )
        attempts += stats[0]
        retries += stats[1]
        backoff += stats[2]
        if current_id is None:
            return receipt(
                False,
                reason="all access points bad",
                cause=FailureCause.ACCESS_POINTS_EXHAUSTED,
            )
        # Clients are admitted at pseudo-layer 0.
        packet.stamp(
            issuer=0,
            mac=deployment.authenticator._mac(0, 0, packet.packet_id),
        )
        packet.record_hop(current_id)

        for layer in range(1, arch.layers + 1):
            node = deployment.resolve(current_id)
            if node.sos_layer != layer:
                raise ProtocolError(
                    f"node {current_id} serves layer {node.sos_layer}, "
                    f"expected {layer}"
                )
            # Stamp on behalf of this layer, then pick a live next hop.
            mac = deployment.authenticator.issue(layer, current_id, packet.packet_id)
            packet.stamp(issuer=current_id, mac=mac)
            next_id, stats = self._next_hop(
                node.neighbors, generator, retry_policy, access_layer=False
            )
            attempts += stats[0]
            retries += stats[1]
            backoff += stats[2]
            if next_id is None:
                return receipt(
                    False,
                    reason=f"all layer-{layer + 1} neighbors bad",
                    cause=FailureCause.NEIGHBORS_EXHAUSTED,
                )
            if not deployment.authenticator.verify(
                layer, current_id, packet.packet_id, packet.mac
            ):
                return receipt(
                    False,
                    reason=f"hop verification failed at layer {layer}",
                    cause=FailureCause.AUTH_FAILED,
                )
            packet.record_hop(next_id)
            current_id = next_id

        # current_id is now a filter; it admits only whitelisted servlets.
        servlet_id = packet.hop_trail[-2] if len(packet.hop_trail) >= 2 else None
        if servlet_id is None or not deployment.filters.admits(servlet_id):
            return receipt(
                False,
                reason="filter rejected non-servlet traffic",
                cause=FailureCause.FILTER_REJECTED,
            )
        return receipt(True)

    def _next_hop(
        self,
        candidates: Sequence[int],
        generator,
        retry_policy: Optional[RetryPolicy],
        access_layer: bool,
    ) -> "Tuple[Optional[int], Tuple[int, int, float]]":
        """Select the next hop; returns ``(node_id, (attempts, retries, backoff))``."""
        if retry_policy is None:
            chosen = self._pick_good(candidates, generator)
            return chosen, (1 if chosen is not None else 0, 0, 0.0)
        return self._pick_with_retry(
            candidates, generator, retry_policy, access_layer
        )

    def _pick_good(
        self, candidates: Sequence[int], generator
    ) -> Optional[int]:
        """Uniformly pick a good node among ``candidates`` (retry-in-table)."""
        good = [
            node_id
            for node_id in candidates
            if self.deployment.is_node_good(node_id)
        ]
        if not good:
            return None
        return good[int(generator.integers(0, len(good)))]

    def _pick_with_retry(
        self,
        candidates: Sequence[int],
        generator,
        policy: RetryPolicy,
        access_layer: bool,
    ) -> "Tuple[Optional[int], Tuple[int, int, float]]":
        """Health-blind selection: try untried entries under a retry budget.

        Each attempt picks uniformly among not-yet-tried candidates; a bad
        pick costs one backoff delay before the next attempt. Returns the
        chosen good node (or None) plus ``(attempts, retries, backoff)``.
        """
        remaining = list(candidates)
        budget = policy.budget_for(len(remaining), access_layer)
        attempts = 0
        retries = 0
        backoff = 0.0
        last_delay: Optional[float] = None
        while remaining and attempts < budget:
            index = int(generator.integers(0, len(remaining)))
            chosen = remaining.pop(index)
            attempts += 1
            if self.deployment.is_node_good(chosen):
                return chosen, (attempts, retries, backoff)
            if remaining and attempts < budget:
                last_delay = policy.delay(retries, generator, previous=last_delay)
                backoff += last_delay
                retries += 1
        return None, (attempts, retries, backoff)

    # ------------------------------------------------------------------
    # Global reachability
    # ------------------------------------------------------------------
    def path_exists(self, contacts: Sequence[int]) -> bool:
        """True when some all-good path connects ``contacts`` to the target.

        Layered BFS through good nodes only; unlike :meth:`send` it may
        backtrack, so it upper-bounds the forwarding success probability.
        """
        deployment = self.deployment
        frontier = deque(
            node_id
            for node_id in contacts
            if deployment.is_node_good(node_id)
        )
        visited = set(frontier)
        target_layer = deployment.architecture.layers + 1
        while frontier:
            node_id = frontier.popleft()
            node = deployment.resolve(node_id)
            if node.sos_layer == target_layer:
                return True
            for neighbor_id in node.neighbors:
                if neighbor_id in visited:
                    continue
                visited.add(neighbor_id)
                if deployment.is_node_good(neighbor_id):
                    frontier.append(neighbor_id)
        return False
