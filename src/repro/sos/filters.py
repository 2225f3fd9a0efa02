"""The filter ring around the target (paper §2, footnote 2).

Filters are special machines — typically routers in the target's ISP —
that drop every packet whose last hop is not a currently enrolled secret
servlet. They are *not* part of the overlay population: the attacker cannot
break into them and cannot congest them at random; only a filter whose
identity leaked through a broken-in servlet can be flooded.

Like the overlay population, filter state is columnar: the ring owns a
small :class:`~repro.overlay.arrays.OverlayStore` and hands out cached
:class:`~repro.overlay.node.OverlayNode` views, so the deployment's
per-layer health counters and the fastsim array encoding cover filters
with the same code paths as overlay nodes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.overlay.arrays import HEALTH_GOOD, OverlayStore
from repro.overlay.node import OverlayNode


class FilterRing:
    """The set of filters guarding one target.

    Filter identifiers live in their own namespace (negative integers are
    avoided; we offset above the overlay ring instead) so they can never
    collide with overlay node identifiers.
    """

    def __init__(self, count: int, layer: int, id_offset: int) -> None:
        if count < 1:
            raise ConfigurationError(f"need at least one filter, got {count}")
        if layer < 2:
            raise ConfigurationError(
                f"the filter layer must sit above at least one SOS layer, got {layer}"
            )
        self.layer = layer
        self.store = OverlayStore(range(id_offset, id_offset + count))
        self.store.layer[:] = layer
        self.store.recompute_counters()
        # Filter ids are a fixed contiguous block; membership is a pure
        # range check (hot in ``SOSDeployment.resolve`` on every hop).
        self._id_lo = id_offset
        self._id_hi = id_offset + count
        self._views: Dict[int, OverlayNode] = {}
        self._allowed_servlets: Set[int] = set()

    def __len__(self) -> int:
        return len(self.store)

    def __iter__(self) -> Iterator[OverlayNode]:
        for row in range(len(self.store)):
            yield self._view(row)

    def __contains__(self, filter_id: int) -> bool:
        return self._id_lo <= filter_id < self._id_hi

    def contains_many(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized ``in``: a mask of which ``ids`` are filters."""
        return (ids >= self._id_lo) & (ids < self._id_hi)

    def _view(self, row: int) -> OverlayNode:
        filter_id = int(self.store.ids[row])
        view = self._views.get(filter_id)
        if view is None:
            view = OverlayNode._from_store(self.store, row, f"filter-{row}")
            self._views[filter_id] = view
        return view

    @property
    def filter_ids(self) -> List[int]:
        return self.store.sorted_ids.tolist()

    def get(self, filter_id: int) -> OverlayNode:
        view = self._views.get(filter_id)
        if view is not None:
            return view
        row = self.store.row_of(filter_id)
        if row < 0:
            raise ProtocolError(f"unknown filter {filter_id}")
        return self._view(row)

    # ------------------------------------------------------------------
    # Servlet admission
    # ------------------------------------------------------------------
    def allow_servlet(self, servlet_id: int) -> None:
        """Whitelist a secret servlet's traffic."""
        self.allow_servlets((servlet_id,))

    def allow_servlets(self, servlet_ids: Iterable[int]) -> None:
        """Whitelist many secret servlets at once."""
        self._allowed_servlets.update(servlet_ids)

    def admits(self, servlet_id: int) -> bool:
        """True when packets from ``servlet_id`` pass the firewall."""
        return servlet_id in self._allowed_servlets

    # ------------------------------------------------------------------
    # Attack surface
    # ------------------------------------------------------------------
    def congest(self, filter_id: int) -> None:
        """Flood a *disclosed* filter (the only way filters go bad)."""
        self.get(filter_id).congest()

    def good_filters(self) -> List[OverlayNode]:
        return [
            self._view(int(row))
            for row in np.flatnonzero(self.store.health == HEALTH_GOOD)
        ]

    def reset_health(self) -> None:
        self.store.reset_health()
