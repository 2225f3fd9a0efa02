"""Multi-target SOS: one overlay protecting many targets.

The paper analyzes a single client/target pair, but SOS is built to guard
many targets with the same overlay (§2: each target has *its* secret
servlets and *its* filter ring; everything below the servlet layer is
shared infrastructure). This module adds that dimension:

* each registered target gets its own :class:`~repro.sos.filters.FilterRing`
  and a dedicated subset of layer-``L`` nodes acting as its secret
  servlets, whitelisted at its filters only;
* the target → servlet binding is published in the Chord directory
  (replicated), exactly how beacons learn where to forward;
* forwarding follows the shared neighbor tables through layers
  ``1..L-1``; the beacon then resolves the target's servlet set from the
  directory and forwards to a surviving member.

Isolation is the point: compromising or flooding the servlets and filters
of target A leaves target B deliverable, which the tests assert.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ProtocolError
from repro.sos.deployment import SOSDeployment
from repro.sos.filters import FilterRing
from repro.sos.packets import DeliveryReceipt, Packet
from repro.utils.seeding import SeedLike, make_rng


@dataclasses.dataclass(frozen=True)
class TargetSite:
    """One protected target's dedicated resources."""

    name: str
    servlet_ids: tuple
    filters: FilterRing


class MultiTargetSOS:
    """Manage and route to many targets over one deployment.

    Examples
    --------
    >>> from repro.core import SOSArchitecture
    >>> from repro.sos import SOSDeployment
    >>> arch = SOSArchitecture(layers=3, mapping="one-to-half",
    ...                        total_overlay_nodes=500, sos_nodes=60,
    ...                        filters=5)
    >>> overlay = MultiTargetSOS(SOSDeployment.deploy(arch, rng=7))
    >>> site = overlay.register_target("hospital", rng=1)
    >>> len(site.servlet_ids)
    3
    """

    def __init__(self, deployment: SOSDeployment) -> None:
        if deployment.architecture.layers < 2:
            raise ConfigurationError(
                "multi-target routing needs at least 2 layers (the final "
                "beacon resolves the per-target servlet set)"
            )
        self.deployment = deployment
        self._sites: Dict[str, TargetSite] = {}
        self._next_filter_offset = deployment.network.space.size + 10_000

    # ------------------------------------------------------------------
    # Target lifecycle
    # ------------------------------------------------------------------
    def register_target(
        self,
        name: str,
        servlets_per_target: int = 3,
        filters_per_target: int = 5,
        rng: SeedLike = None,
    ) -> TargetSite:
        """Provision servlets, a filter ring, and a directory binding."""
        if name in self._sites:
            raise ConfigurationError(f"target {name!r} already registered")
        if servlets_per_target < 1 or filters_per_target < 1:
            raise ConfigurationError(
                "servlets_per_target and filters_per_target must be >= 1"
            )
        generator = make_rng(rng)
        layer = self.deployment.architecture.layers
        candidates = self.deployment.layer_members(layer)
        if servlets_per_target > len(candidates):
            raise ConfigurationError(
                f"not enough servlet-layer nodes for {servlets_per_target} "
                f"servlets (layer holds {len(candidates)})"
            )
        chosen = generator.choice(
            len(candidates), size=servlets_per_target, replace=False
        )
        servlet_ids = tuple(sorted(candidates[int(i)] for i in chosen))

        filters = FilterRing(
            count=filters_per_target,
            layer=layer + 1,
            id_offset=self._next_filter_offset,
        )
        self._next_filter_offset += filters_per_target
        for servlet_id in servlet_ids:
            filters.allow_servlet(servlet_id)

        self.deployment.chord.put_key(
            f"multi-target:{name}", list(servlet_ids), replicas=3
        )
        site = TargetSite(name=name, servlet_ids=servlet_ids, filters=filters)
        self._sites[name] = site
        return site

    def site(self, name: str) -> TargetSite:
        try:
            return self._sites[name]
        except KeyError:
            raise ProtocolError(f"unknown target {name!r}") from None

    @property
    def targets(self) -> List[str]:
        return sorted(self._sites)

    def resolve_servlets(self, name: str) -> List[int]:
        """Read the target's servlet set from the Chord directory."""
        from repro.errors import RoutingError

        chord = self.deployment.chord
        try:
            servlet_ids = chord.get_key(
                f"multi-target:{name}", start=chord.live_node_ids[0]
            )
        except RoutingError as exc:
            raise ProtocolError(
                f"no directory binding for target {name!r}: {exc}"
            ) from exc
        return list(servlet_ids)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def send(
        self,
        source: str,
        target: str,
        contacts: Optional[Sequence[int]] = None,
        rng: SeedLike = None,
    ) -> DeliveryReceipt:
        """Forward one packet to ``target`` through the shared overlay.

        Layers ``1..L-1`` use the shared neighbor tables (per-hop retry);
        the last beacon resolves the target's servlets from the directory
        and forwards to a surviving one; that servlet must be admitted by
        the target's own filter ring.
        """
        site = self.site(target)
        deployment = self.deployment
        arch = deployment.architecture
        generator = make_rng(rng)
        packet = Packet(source=source, target=target)

        if contacts is None:
            contacts = deployment.sample_client_contacts(generator)
        current = self._pick_good(contacts, generator)
        if current is None:
            return DeliveryReceipt(
                packet.packet_id, False, packet.hops,
                failure_reason="all access points bad",
            )
        packet.record_hop(current)

        # Shared layers: the entry node is at layer 1; hop until the final
        # beacon at layer L-1 (the servlet hop is resolved via directory).
        for layer in range(1, arch.layers - 1):
            node = deployment.resolve(current)
            next_id = self._pick_good(node.neighbors, generator)
            if next_id is None:
                return DeliveryReceipt(
                    packet.packet_id, False, packet.hops,
                    failure_reason=f"all layer-{layer + 1} neighbors bad",
                )
            packet.record_hop(next_id)
            current = next_id

        # The final beacon consults the directory for this target.
        servlet_ids = self.resolve_servlets(target)
        servlet = self._pick_good(servlet_ids, generator)
        if servlet is None:
            return DeliveryReceipt(
                packet.packet_id, False, packet.hops,
                failure_reason="all dedicated servlets bad",
            )
        packet.record_hop(servlet)

        good_filters = [
            f.node_id for f in site.filters if f.is_good
        ]
        if not good_filters:
            return DeliveryReceipt(
                packet.packet_id, False, packet.hops,
                failure_reason="all target filters bad",
            )
        filter_id = good_filters[int(generator.integers(0, len(good_filters)))]
        if not site.filters.admits(servlet):
            return DeliveryReceipt(
                packet.packet_id, False, packet.hops,
                failure_reason="filter rejected non-servlet traffic",
            )
        packet.record_hop(filter_id)
        return DeliveryReceipt(packet.packet_id, True, packet.hops)

    def _pick_good(self, candidates: Sequence[int], generator) -> Optional[int]:
        good = [
            node_id
            for node_id in candidates
            if self.deployment.is_node_good(node_id)
        ]
        if not good:
            return None
        return good[int(generator.integers(0, len(good)))]

    # ------------------------------------------------------------------
    # Attack surface helpers
    # ------------------------------------------------------------------
    def attack_target_site(self, name: str) -> None:
        """Flood one target's dedicated servlets and filters (targeted
        take-down of a single protected service)."""
        site = self.site(name)
        for servlet_id in site.servlet_ids:
            self.deployment.resolve(servlet_id).congest()
        for filter_node in site.filters:
            filter_node.congest()

    def delivery_rates(
        self, probes: int = 100, rng: SeedLike = None
    ) -> Dict[str, float]:
        """Measured delivery rate per registered target."""
        generator = make_rng(rng)
        rates = {}
        for name in self.targets:
            hits = 0
            for _ in range(probes):
                contacts = self.deployment.sample_client_contacts(generator)
                hits += int(
                    self.send("probe", name, contacts=contacts, rng=generator)
                    .delivered
                )
            rates[name] = hits / probes
        return rates
