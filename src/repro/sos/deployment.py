"""Deploying a generalized SOS architecture onto a concrete overlay.

:class:`SOSDeployment` turns an abstract :class:`~repro.core.SOSArchitecture`
into running state: it enrolls ``n`` overlay nodes into layers, wires the
random neighbor tables that realize the mapping degrees ``m_i``, stands up
the filter ring, registers everyone with the hop authenticator, and builds
a Chord ring over the SOS membership (the lookup substrate beacons use).

This is the object both the executable attacker (:mod:`repro.attacks`) and
the packet forwarder (:mod:`repro.sos.protocol`) operate on, and the thing
the Monte Carlo validator repeatedly instantiates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.architecture import SOSArchitecture
from repro.errors import ConfigurationError, RoutingError
from repro.overlay.arrays import HEALTH_GOOD
from repro.overlay.chord import ChordRing
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.sos.auth import HopAuthenticator
from repro.sos.filters import FilterRing
from repro.sos.roles import Role, role_for_layer
from repro.utils.seeding import SeedLike, make_rng


def sample_contact_matrix(
    generator: np.random.Generator, population: int, degree: int, clients: int
) -> np.ndarray:
    """Per-client access points as an int64 ``(clients, degree)`` matrix.

    Row ``i`` holds client ``i``'s ``degree`` distinct layer-1 positions
    (``0 .. population - 1``) from one ``choice`` without replacement —
    the draw every client-contact sampler in the package makes, so one
    generator state yields the same contacts whichever caller draws them.
    """
    matrix = np.empty((clients, degree), dtype=np.int64)
    for row in matrix:
        row[:] = generator.choice(population, size=degree, replace=False)
    return matrix


class SOSDeployment:
    """A generalized SOS instance deployed over an overlay network.

    Use :meth:`deploy` rather than the constructor.

    Examples
    --------
    >>> from repro.core import SOSArchitecture
    >>> arch = SOSArchitecture(layers=3, mapping="one-to-half",
    ...                        total_overlay_nodes=500, sos_nodes=60)
    >>> deployment = SOSDeployment.deploy(arch, rng=7)
    >>> [len(deployment.layer_members(i)) for i in (1, 2, 3)]
    [20, 20, 20]
    """

    def __init__(
        self,
        architecture: SOSArchitecture,
        network: OverlayNetwork,
        filters: FilterRing,
        authenticator: HopAuthenticator,
        chord: ChordRing,
        layer_membership: Dict[int, List[int]],
    ) -> None:
        self.architecture = architecture
        self.network = network
        self.filters = filters
        self.authenticator = authenticator
        self.chord = chord
        self._layer_membership = layer_membership
        # Lazily-built columnar caches (member id arrays / store rows per
        # layer); invalidated whenever the membership mapping changes.
        self._member_arrays: Dict[int, np.ndarray] = {}
        self._member_rows: Dict[int, np.ndarray] = {}
        self._sos_member_cache: Optional[np.ndarray] = None
        #: Wiring-epoch-keyed structural encoding owned by
        #: :func:`repro.perf.fastsim._encode_structure`.
        self._fastsim_structure: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def deploy(
        cls,
        architecture: SOSArchitecture,
        network: Optional[OverlayNetwork] = None,
        rng: SeedLike = None,
    ) -> "SOSDeployment":
        """Enroll nodes, wire neighbor tables, and stand up the system."""
        generator = make_rng(rng)
        if network is None:
            network = OverlayNetwork(
                architecture.total_overlay_nodes, rng=generator
            )
        elif len(network) != architecture.total_overlay_nodes:
            raise ConfigurationError(
                f"network has {len(network)} nodes but the architecture "
                f"expects N={architecture.total_overlay_nodes}"
            )
        network.reset_roles()
        network.reset_health()

        layer_sizes = architecture.integer_layer_sizes
        sos_nodes = network.random_nodes(sum(layer_sizes), rng=generator)
        generator.shuffle(sos_nodes)  # type: ignore[arg-type]

        layer_membership: Dict[int, List[int]] = {}
        cursor = 0
        for layer_index, size in enumerate(layer_sizes, start=1):
            members = sos_nodes[cursor : cursor + size]
            cursor += size
            for node in members:
                node.sos_layer = layer_index
            layer_membership[layer_index] = sorted(n.node_id for n in members)

        filters = FilterRing(
            count=architecture.filters,
            layer=architecture.layers + 1,
            id_offset=network.space.size,
        )
        layer_membership[architecture.layers + 1] = filters.filter_ids

        authenticator = HopAuthenticator(architecture.layers + 1)
        for layer, members in layer_membership.items():
            for member in members:
                authenticator.enroll(layer, member)

        deployment = cls(
            architecture=architecture,
            network=network,
            filters=filters,
            authenticator=authenticator,
            chord=ChordRing.build(
                sorted(node.node_id for node in sos_nodes),
                bits=network.space.bits,
            ),
            layer_membership=layer_membership,
        )
        deployment._wire_neighbor_tables(generator)
        return deployment

    def _wire_neighbor_tables(self, generator) -> None:
        """Give every layer-``i`` node ``m_{i+1}`` random next-layer neighbors."""
        arch = self.architecture
        for layer in range(1, arch.layers + 1):
            next_layer = layer + 1
            candidates = self._layer_membership[next_layer]
            degree = arch.mapping_degree(next_layer)
            degree = min(degree, len(candidates))
            for node_id in self._layer_membership[layer]:
                chosen = generator.choice(
                    len(candidates), size=degree, replace=False
                )
                neighbors = tuple(candidates[int(i)] for i in chosen)
                self.network.get(node_id).set_neighbors(neighbors)
                if next_layer == arch.layers + 1:
                    for filter_id in neighbors:
                        # Every servlet that knows a filter is whitelisted.
                        self.filters.allow_servlet(node_id)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def layer_members(self, layer: int) -> List[int]:
        """Sorted identifiers of 1-based ``layer`` (``L+1`` = filters)."""
        try:
            return list(self._layer_membership[layer])
        except KeyError:
            raise ConfigurationError(
                f"layer {layer} out of range 1..{self.architecture.layers + 1}"
            ) from None

    def role_of(self, node_id: int) -> Role:
        """Role of an enrolled node or filter."""
        if node_id in self.filters:
            return Role.FILTER
        node = self.network.get(node_id)
        if not node.is_sos:
            raise ConfigurationError(f"node {node_id} is not enrolled in SOS")
        return role_for_layer(node.sos_layer, self.architecture.layers)

    def resolve(self, node_id: int) -> OverlayNode:
        """Resolve an identifier against overlay nodes and filters alike."""
        if node_id in self.filters:
            return self.filters.get(node_id)
        return self.network.get(node_id)

    def is_node_good(self, node_id: int) -> bool:
        """Scalar health probe equivalent to ``resolve(node_id).is_good``.

        Reads the health column directly instead of materializing a node
        view — hop selection calls this per candidate on every send.
        """
        store = (
            self.filters.store
            if node_id in self.filters
            else self.network.store
        )
        row = store.row_of(node_id)
        if row < 0:
            raise RoutingError(f"no node with identifier {node_id}")
        return store.health.item(row) == HEALTH_GOOD

    def sample_client_contacts(self, generator) -> List[int]:
        """Draw the ``m_1`` access points a new client is given."""
        members = self.member_array(1)
        return members[self.client_contact_matrix(generator, 1)[0]].tolist()

    def client_contact_matrix(self, generator, clients: int) -> np.ndarray:
        """``clients`` rows of :meth:`sample_client_contacts` draws, as
        layer-1 positions (indices into :meth:`member_array` ``(1)``).

        Same draws, same order; the fast engine uses the positions
        directly as layer-1 slots.
        """
        population = len(self.member_array(1))
        return sample_contact_matrix(
            generator,
            population,
            min(self.architecture.mapping_degree(1), population),
            clients,
        )

    # ------------------------------------------------------------------
    # Columnar views (array-path consumers: fastsim, churn, repair)
    # ------------------------------------------------------------------
    def member_array(self, layer: int) -> np.ndarray:
        """Sorted member identifiers of ``layer`` as a cached int64 column."""
        cached = self._member_arrays.get(layer)
        if cached is None:
            cached = np.asarray(self.layer_members(layer), dtype=np.int64)
            self._member_arrays[layer] = cached
        return cached

    def member_rows(self, layer: int) -> np.ndarray:
        """Store rows of ``layer``'s members (filters map into their ring).

        Rows for layers 1..L index :attr:`network` ``.store``; rows for
        layer ``L+1`` index :attr:`filters` ``.store``.
        """
        cached = self._member_rows.get(layer)
        if cached is None:
            store = (
                self.filters.store
                if layer == self.architecture.layers + 1
                else self.network.store
            )
            cached = store.rows_of(self.member_array(layer))
            self._member_rows[layer] = cached
        return cached

    def sos_member_array(self) -> np.ndarray:
        """:meth:`sos_member_ids` as a cached int64 column."""
        if self._sos_member_cache is None:
            layers = range(1, self.architecture.layers + 1)
            parts = [self.member_array(layer) for layer in layers]
            self._sos_member_cache = (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )
        return self._sos_member_cache

    def _invalidate_member_caches(self) -> None:
        self._member_arrays.clear()
        self._member_rows.clear()
        self._sos_member_cache = None
        self._fastsim_structure = None

    def good_members(self, layer: int) -> List[int]:
        """Identifiers of still-routable members of ``layer``."""
        store = (
            self.filters.store
            if layer == self.architecture.layers + 1
            else self.network.store
        )
        rows = self.member_rows(layer)
        members = self.member_array(layer)
        return members[store.health[rows] == 0].tolist()

    def bad_counts(self) -> Dict[int, int]:
        """Per-layer count of bad (compromised, congested, or crashed).

        O(layers) via the stores' incremental per-layer counters (layer
        codes are written only by :meth:`deploy`/:meth:`reassign_membership`,
        so code ``i`` on a node ⇔ membership in layer ``i``).
        """
        filter_layer = self.architecture.layers + 1
        counts = {
            layer: self.network.store.bad_count(layer)
            for layer in range(1, filter_layer)
        }
        counts[filter_layer] = self.filters.store.bad_count(filter_layer)
        return counts

    def crashed_counts(self) -> Dict[int, int]:
        """Per-layer count of benignly crashed members (churn, not attack)."""
        filter_layer = self.architecture.layers + 1
        counts = {
            layer: self.network.store.crashed_count(layer)
            for layer in range(1, filter_layer)
        }
        counts[filter_layer] = self.filters.store.crashed_count(filter_layer)
        return counts

    def sos_member_ids(self) -> List[int]:
        """All enrolled overlay members (layers 1..L, filters excluded).

        The churn population: filters are ISP routers outside the overlay
        and do not participate in benign node churn.
        """
        return self.sos_member_array().tolist()

    def reset_attack_state(self) -> None:
        """Clear all health damage (fresh attack trial on the same wiring)."""
        self.network.reset_health()
        self.filters.reset_health()

    def reassign_membership(
        self, chosen_nodes: Sequence[int], generator
    ) -> None:
        """Re-enroll the SOS membership onto ``chosen_nodes``.

        ``chosen_nodes`` must contain exactly ``n`` overlay identifiers;
        they are assigned to layers in order (layer sizes unchanged),
        authenticator enrollment is refreshed, and neighbor tables are
        rewired. Used by underlay-aware placement
        (:mod:`repro.sos.placement`).
        """
        sizes = self.architecture.integer_layer_sizes
        if len(chosen_nodes) != sum(sizes):
            raise ConfigurationError(
                f"need exactly {sum(sizes)} nodes, got {len(chosen_nodes)}"
            )
        self.network.reset_roles()
        self.network.reset_health()
        cursor = 0
        membership: Dict[int, List[int]] = {}
        for layer_index, size in enumerate(sizes, start=1):
            members = list(chosen_nodes[cursor : cursor + size])
            cursor += size
            for node_id in members:
                self.network.get(node_id).sos_layer = layer_index
            membership[layer_index] = sorted(members)
        membership[self.architecture.layers + 1] = self.filters.filter_ids
        self._layer_membership = membership
        self._invalidate_member_caches()
        for layer, members in membership.items():
            for member in members:
                self.authenticator.enroll(layer, member)
        self._wire_neighbor_tables(generator)
