"""Underlay topology: the physical network beneath the overlay.

Overlay hops are not free — each one crosses several underlay links — and
the paper's §5 notes that "attacks on the underlying network are possible,
although hard to analyze." This module provides that substrate:

* :class:`UnderlayTopology` — a connected random graph (Waxman-style
  geometric or Barabási–Albert preferential attachment, via networkx) whose
  vertices are underlay routers with link latencies;
* overlay nodes are attached to random routers; the latency of an overlay
  hop is the shortest-path latency between the two routers;
* link failures (:meth:`UnderlayTopology.fail_random_links`) partition
  or lengthen paths; :meth:`overlay_hop_latency` returns ``inf`` when the endpoints are
  disconnected, which the latency and routing layers interpret as an
  unusable hop.

Used by the ``ext-underlay`` experiment and the ``underlay_effects``
example to quantify how underlay damage degrades SOS path quality even
when no overlay node is attacked.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, RoutingError
from repro.utils.seeding import SeedLike, make_rng

if TYPE_CHECKING:
    import networkx as nx


class UnderlayTopology:
    """A latency-weighted physical network hosting overlay nodes.

    Parameters
    ----------
    routers:
        Number of underlay routers.
    model:
        ``"waxman"`` (geometric random graph with distance-dependent link
        probability, the classic Internet-topology generator) or
        ``"barabasi-albert"`` (preferential attachment).
    mean_degree:
        Target average router degree (drives the generators' parameters).
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        routers: int = 200,
        model: str = "waxman",
        mean_degree: float = 4.0,
        rng: SeedLike = None,
    ) -> None:
        if routers < 2:
            raise ConfigurationError(f"need at least 2 routers, got {routers}")
        if mean_degree < 2.0:
            raise ConfigurationError("mean_degree must be >= 2 for connectivity")
        self._rng = make_rng(rng)
        self.model = model
        self.graph = self._build_graph(routers, model, mean_degree)
        self._attachments: Dict[int, int] = {}
        self._distance_cache: Optional[Dict[int, Dict[int, float]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_graph(self, routers: int, model: str, mean_degree: float) -> nx.Graph:
        # networkx is imported only where a graph is built or queried:
        # loading it costs a process 0.1-0.15 s and 13-18 MiB, and only
        # the underlay experiments need it.
        import networkx as nx

        seed = int(self._rng.integers(0, 2**31))
        if model == "waxman":
            # Waxman link probability is beta * exp(-d / (alpha * L)); with
            # alpha = 0.4 on the unit square the expected exponential factor
            # is ~0.35, so mean degree ~= beta * (n - 1) * 0.35. Solve for
            # beta to hit the requested mean degree.
            beta = min(1.0, mean_degree / (max(1, routers - 1) * 0.35))
            graph = nx.waxman_graph(routers, beta=beta, alpha=0.4, seed=seed)
        elif model == "barabasi-albert":
            m = max(1, int(round(mean_degree / 2)))
            graph = nx.barabasi_albert_graph(routers, m, seed=seed)
        else:
            raise ConfigurationError(
                f"unknown underlay model {model!r}; "
                "expected 'waxman' or 'barabasi-albert'"
            )
        # Force connectivity: chain the components together.
        components = [sorted(c) for c in nx.connected_components(graph)]
        for first, second in zip(components, components[1:]):
            graph.add_edge(first[0], second[0])
        # Latency per link: positional distance when available, else a
        # lognormal-ish draw around 10ms.
        positions = nx.get_node_attributes(graph, "pos")
        for u, v in graph.edges:
            if positions:
                (x1, y1), (x2, y2) = positions[u], positions[v]
                latency = 1.0 + 20.0 * math.hypot(x1 - x2, y1 - y2)
            else:
                latency = float(1.0 + self._rng.exponential(9.0))
            graph.edges[u, v]["latency"] = latency
        return graph

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def routers(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def links(self) -> int:
        return self.graph.number_of_edges()

    @property
    def mean_link_latency(self) -> float:
        latencies = [d["latency"] for _, _, d in self.graph.edges(data=True)]
        return sum(latencies) / len(latencies)

    def is_connected(self) -> bool:
        import networkx as nx

        return nx.is_connected(self.graph)

    # ------------------------------------------------------------------
    # Overlay attachment
    # ------------------------------------------------------------------
    def attach_overlay_nodes(
        self, overlay_ids: Iterable[int], concentration: float = 0.0
    ) -> None:
        """Home each overlay node at a random router.

        ``concentration = 0`` is uniform. Larger values skew the choice
        Zipf-style toward a few "data-center" routers (rank ``r`` gets
        weight ``(r+1)**-concentration`` over a random ranking), modeling
        real deployments where overlay hosts cluster in few facilities.
        """
        if concentration < 0:
            raise ConfigurationError("concentration must be >= 0")
        router_list = list(self.graph.nodes)
        if concentration <= 0.0:
            weights = None
        else:
            order = self._rng.permutation(len(router_list))
            raw = [0.0] * len(router_list)
            for rank, index in enumerate(order):
                raw[int(index)] = (rank + 1.0) ** -concentration
            total = sum(raw)
            weights = [w / total for w in raw]
        for overlay_id in overlay_ids:
            index = int(self._rng.choice(len(router_list), p=weights))
            self._attachments[overlay_id] = router_list[index]
        self._distance_cache = None

    def router_of(self, overlay_id: int) -> int:
        try:
            return self._attachments[overlay_id]
        except KeyError:
            raise RoutingError(
                f"overlay node {overlay_id} is not attached to the underlay"
            ) from None

    # ------------------------------------------------------------------
    # Latency queries
    # ------------------------------------------------------------------
    def _distances_from(self, router: int) -> Dict[int, float]:
        if self._distance_cache is None:
            self._distance_cache = {}
        if router not in self._distance_cache:
            import networkx as nx

            self._distance_cache[router] = nx.single_source_dijkstra_path_length(
                self.graph, router, weight="latency"
            )
        return self._distance_cache[router]

    def router_latency(self, source_router: int, target_router: int) -> float:
        """Shortest-path latency between routers; ``inf`` if disconnected."""
        if source_router not in self.graph or target_router not in self.graph:
            raise RoutingError("unknown router")
        distances = self._distances_from(source_router)
        return distances.get(target_router, math.inf)

    def overlay_hop_latency(self, from_overlay: int, to_overlay: int) -> float:
        """Underlay latency of one overlay hop; ``inf`` when partitioned
        or when either endpoint's home router is out of service."""
        source = self.router_of(from_overlay)
        target = self.router_of(to_overlay)
        if source not in self.graph or target not in self.graph:
            return math.inf
        return self.router_latency(source, target)

    def path_latency(self, overlay_path: List[int]) -> float:
        """Total underlay latency along an overlay hop sequence."""
        total = 0.0
        for a, b in zip(overlay_path, overlay_path[1:]):
            total += self.overlay_hop_latency(a, b)
        return total

    # ------------------------------------------------------------------
    # Underlay attacks
    # ------------------------------------------------------------------
    def fail_random_links(self, count: int) -> List[Tuple[int, int]]:
        """Cut ``count`` uniformly random links; returns the cut set."""
        edges = list(self.graph.edges)
        if count > len(edges):
            raise ConfigurationError(
                f"cannot cut {count} of {len(edges)} links"
            )
        chosen = self._rng.choice(len(edges), size=count, replace=False)
        cut = [edges[int(i)] for i in chosen]
        for u, v in cut:
            self.graph.remove_edge(u, v)
        self._distance_cache = None
        return cut

    def fail_busiest_routers(
        self, count: int, overlay_ids: Iterable[int]
    ) -> List[int]:
        """Fail the ``count`` routers hosting the most of ``overlay_ids``.

        The targeted version of a facility outage: the attacker hits the
        data centers where the population visibly concentrates. Returns
        the failed router identifiers.
        """
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        load: Dict[int, int] = {}
        for overlay_id in overlay_ids:
            router = self.router_of(overlay_id)
            load[router] = load.get(router, 0) + 1
        ranked = sorted(load, key=lambda r: (-load[r], r))
        victims = [r for r in ranked[:count] if r in self.graph]
        for router in victims:
            self.graph.remove_node(router)
        self._distance_cache = None
        return victims

    def partition_fraction(self, overlay_ids: Iterable[int]) -> float:
        """Fraction of overlay-node pairs that are underlay-disconnected."""
        ids = list(overlay_ids)
        if len(ids) < 2:
            return 0.0
        disconnected = 0
        total = 0
        for i, a in enumerate(ids):
            router_a = self.router_of(a)
            distances = (
                self._distances_from(router_a)
                if router_a in self.graph
                else {}
            )
            for b in ids[i + 1 :]:
                total += 1
                if self.router_of(b) not in distances:
                    disconnected += 1
        return disconnected / total
