"""Struct-of-arrays backing store for overlay node state.

The object-per-node representation (:class:`~repro.overlay.node.OverlayNode`
instances in dictionaries) caps simulations at the ~10⁴–10⁵ nodes that fit
as Python objects. :class:`OverlayStore` keeps the same state as contiguous
numpy columns — identifiers, health codes, SOS layer codes, and padded
neighbor tables — so a million-node overlay costs tens of megabytes and
every bulk operation (health census, layer membership, reset, per-layer
bad counts) is one vectorized pass. :class:`~repro.overlay.node.OverlayNode`
remains the public API: nodes created by :class:`~repro.overlay.network
.OverlayNetwork` and :class:`~repro.sos.filters.FilterRing` are thin views
whose property reads and writes go straight to these columns, so the object
and array views can never disagree.

The store also maintains **incremental per-layer health counters**: every
health or layer transition adjusts the per-layer ``bad`` tally, so
:meth:`~repro.sos.deployment.SOSDeployment.bad_counts` is O(layers) instead
of an O(N) rescan in the detect→repair loop.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "HEALTH_GOOD",
    "HEALTH_COMPROMISED",
    "HEALTH_CONGESTED",
    "HEALTH_CRASHED",
    "OverlayStore",
]

#: Health codes, stable across processes and serializations. Order matches
#: :class:`~repro.overlay.node.NodeHealth` declaration order so a census
#: bincount maps 1:1 onto the enum.
HEALTH_GOOD = 0
HEALTH_COMPROMISED = 1
HEALTH_CONGESTED = 2
HEALTH_CRASHED = 3

#: Layer code for "not enrolled" (``OverlayNode.sos_layer is None``).
NO_LAYER = 0

#: Largest population for which ``row_of`` builds an id→row dict on
#: first use. Scalar lookups dominate the small-N oracle paths (per-hop
#: forwarding, per-node attacks), where the dict restores O(1) hits; at
#: million-node scale the dict would cost hundreds of MB against a
#: vectorized workload that never calls scalar ``row_of``, so large
#: stores stay on the binary search.
_ROW_MAP_MAX = 1 << 17


class OverlayStore:
    """Columnar state for a fixed population of overlay nodes.

    The population (identifier set) is fixed at construction — overlay
    networks and filter rings never grow — which keeps row lookup a
    binary search over one sorted array instead of a per-node dict.

    Columns (all length ``len(store)``, creation order):

    ``ids``
        int64 node identifiers, in creation order (the order the owning
        network enumerated them — **not** necessarily sorted).
    ``health``
        int8 health codes (``HEALTH_*`` above).
    ``layer``
        int32 1-based SOS layer, ``NO_LAYER`` (0) when not enrolled.
    ``neighbor_len``
        int32 per-row valid length of the neighbor table. The tables
        themselves live in a *compact* ``(rows_with_tables, W)`` int64
        matrix reached through a per-row index — in an SOS deployment
        only the enrolled minority carries neighbors, so a million-node
        store must not pay ``N × W`` words for them (read via
        :meth:`neighbors_of` / :meth:`neighbor_matrix`).
    """

    __slots__ = (
        "ids",
        "health",
        "layer",
        "neighbor_len",
        "wiring_epoch",
        "_order",
        "_sorted_ids",
        "_bad_per_layer",
        "_nbr_index",
        "_nbr_table",
        "_nbr_used",
        "_nbr_tuples",
        "_row_map",
    )

    def __init__(self, ids: Sequence[int]) -> None:
        id_col = np.asarray(ids, dtype=np.int64)
        if id_col.ndim != 1:
            raise ConfigurationError("ids must be one-dimensional")
        n = len(id_col)
        self.ids = id_col
        self.health = np.zeros(n, dtype=np.int8)
        self.layer = np.zeros(n, dtype=np.int32)
        self.neighbor_len = np.zeros(n, dtype=np.int32)
        # Compact neighbor storage: row -> compact table index, with
        # index 0 reserved as the all-empty sentinel.
        self._nbr_index = np.zeros(n, dtype=np.int64)
        self._nbr_table = np.full((1, 0), -1, dtype=np.int64)
        self._nbr_used = 1
        self._nbr_tuples: Dict[int, Tuple[int, ...]] = {}
        self._row_map: Dict[int, int] = {}
        #: Bumped on every wiring mutation (layer assignment, neighbor
        #: table write, role reset) — consumers caching derived encodings
        #: (e.g. the fastsim deployment arrays) key on it.
        self.wiring_epoch = 0
        self._order = np.argsort(id_col, kind="stable")
        self._sorted_ids = id_col[self._order]
        if n and bool((self._sorted_ids[1:] == self._sorted_ids[:-1]).any()):
            raise ConfigurationError("store ids must be unique")
        self._bad_per_layer = np.zeros(1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Row lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def row_of(self, node_id: int) -> int:
        """Row of ``node_id``, or -1 when the identifier is unknown."""
        row_map = self._row_map
        if row_map:
            return row_map.get(node_id, -1)
        if 0 < len(self.ids) <= _ROW_MAP_MAX:
            row_map.update(zip(self.ids.tolist(), range(len(self.ids))))
            return row_map.get(node_id, -1)
        index = int(self._sorted_ids.searchsorted(node_id))
        if (
            index < len(self._sorted_ids)
            and int(self._sorted_ids[index]) == node_id
        ):
            return int(self._order[index])
        return -1

    def rows_of(self, node_ids: Sequence[int]) -> np.ndarray:
        """Rows of many identifiers at once; unknown ids raise."""
        return self._order[self.sorted_positions(node_ids)]

    def sorted_positions(self, node_ids: Sequence[int]) -> np.ndarray:
        """Positions of many identifiers in :attr:`sorted_ids`; unknown
        ids raise."""
        wanted = np.asarray(node_ids, dtype=np.int64)
        index = np.searchsorted(self._sorted_ids, wanted)
        clipped = np.minimum(index, max(len(self._sorted_ids) - 1, 0))
        if len(self._sorted_ids) == 0 or bool(
            (self._sorted_ids[clipped] != wanted).any()
        ):
            raise ConfigurationError("unknown node identifier")
        return clipped

    @property
    def sorted_ids(self) -> np.ndarray:
        """All identifiers, ascending (shared array — do not mutate)."""
        return self._sorted_ids

    # ------------------------------------------------------------------
    # Health (incremental per-layer counters)
    # ------------------------------------------------------------------
    def _ensure_layer_capacity(self, layer: int) -> None:
        if layer >= len(self._bad_per_layer):
            grow = layer + 1 - len(self._bad_per_layer)
            self._bad_per_layer = np.concatenate(
                [self._bad_per_layer, np.zeros(grow, dtype=np.int64)]
            )

    def get_health(self, row: int) -> int:
        return self.health.item(row)

    def set_health(self, row: int, code: int) -> None:
        """Write one health code, keeping per-layer counters exact."""
        old = self.health.item(row)
        if old == code:
            return
        layer = self.layer.item(row)
        if layer >= len(self._bad_per_layer):
            self._ensure_layer_capacity(layer)
        bad_delta = (code != HEALTH_GOOD) - (old != HEALTH_GOOD)
        if bad_delta:
            self._bad_per_layer[layer] += bad_delta
        self.health[row] = code

    def set_health_many(self, rows: np.ndarray, code: int) -> None:
        """Bulk health write over distinct ``rows`` with one counter pass
        (vectorized churn, break-ins and congestion)."""
        rows = np.asarray(rows, dtype=np.int64)
        old = self.health[rows]
        moved = old != code
        if not moved.any():
            return
        changed = rows[moved]
        old = old[moved]
        layers = self.layer[changed]
        self._ensure_layer_capacity(int(layers.max()))
        width = len(self._bad_per_layer)
        # Every changed row leaves ``old`` for ``code``: it turns bad iff
        # it was GOOD, and turns GOOD iff it was bad.
        if code == HEALTH_GOOD:
            self._bad_per_layer -= np.bincount(layers, minlength=width)
        else:
            self._bad_per_layer += np.bincount(
                layers[old == HEALTH_GOOD], minlength=width
            )
        self.health[changed] = code

    def reset_health(self) -> None:
        """Everyone back to GOOD; counters collapse to zero."""
        self.health[:] = HEALTH_GOOD
        self._bad_per_layer[:] = 0

    def bad_count(self, layer: int) -> int:
        """Nodes of ``layer`` in any non-GOOD state (O(1) via counters)."""
        if layer >= len(self._bad_per_layer):
            return 0
        return int(self._bad_per_layer[layer])

    def recompute_counters(self) -> None:
        """Rebuild the per-layer counters from the columns (bulk ops)."""
        layers = self.layer.astype(np.int64)
        top = int(layers.max(initial=0))
        self._ensure_layer_capacity(top)
        width = len(self._bad_per_layer)
        bad = self.health != HEALTH_GOOD
        self._bad_per_layer = np.bincount(
            layers[bad], minlength=width
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # Roles and wiring
    # ------------------------------------------------------------------
    def get_layer(self, row: int) -> int:
        return self.layer.item(row)

    def set_layer(self, row: int, layer: int) -> None:
        """Move one node between layers, migrating its health tallies."""
        old = int(self.layer[row])
        if old == layer:
            return
        self._ensure_layer_capacity(max(old, layer))
        code = int(self.health[row])
        if code != HEALTH_GOOD:
            self._bad_per_layer[old] -= 1
            self._bad_per_layer[layer] += 1
        self.layer[row] = layer
        self.wiring_epoch += 1

    def set_layer_many(self, rows: np.ndarray, layers: np.ndarray) -> None:
        """Bulk :meth:`set_layer`: distinct ``rows[i]`` moves to ``layers[i]``.

        One column write; the health tallies of non-GOOD rows migrate in
        one counter pass, exactly as a per-row replay would leave them.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return
        new = np.asarray(layers, dtype=np.int64)
        old = self.layer[rows].astype(np.int64)
        self._ensure_layer_capacity(int(max(old.max(), new.max())))
        width = len(self._bad_per_layer)
        hit = self.health[rows] != HEALTH_GOOD
        if hit.any():
            self._bad_per_layer -= np.bincount(old[hit], minlength=width)
            self._bad_per_layer += np.bincount(new[hit], minlength=width)
        self.layer[rows] = new
        self.wiring_epoch += 1

    def reset_roles(self) -> None:
        """Clear enrollment and neighbor tables on every node."""
        self.layer[:] = NO_LAYER
        self.neighbor_len[:] = 0
        # Release every compact neighbor row for reuse; stale table
        # contents become unreachable once the indices point at the
        # sentinel again.
        self._nbr_index[:] = 0
        self._nbr_used = 1
        self._nbr_tuples.clear()
        self.wiring_epoch += 1
        self.recompute_counters()

    def _ensure_neighbor_width(self, width: int) -> None:
        if width > self._nbr_table.shape[1]:
            grown = np.full(
                (self._nbr_table.shape[0], width), -1, dtype=np.int64
            )
            grown[:, : self._nbr_table.shape[1]] = self._nbr_table
            self._nbr_table = grown

    def _ensure_neighbor_rows(self, needed: int) -> None:
        capacity = self._nbr_table.shape[0]
        if needed <= capacity:
            return
        capacity = max(8, capacity)
        while capacity < needed:
            capacity *= 2
        grown = np.full(
            (capacity, self._nbr_table.shape[1]), -1, dtype=np.int64
        )
        grown[: self._nbr_used] = self._nbr_table[: self._nbr_used]
        self._nbr_table = grown

    def set_neighbors(self, row: int, neighbor_ids: Sequence[int]) -> None:
        values = np.asarray(tuple(neighbor_ids), dtype=np.int64)
        self._ensure_neighbor_width(len(values))
        index = int(self._nbr_index[row])
        if index == 0:
            index = self._nbr_used
            self._ensure_neighbor_rows(index + 1)
            self._nbr_used += 1
            self._nbr_index[row] = index
        self._nbr_table[index, : len(values)] = values
        self._nbr_table[index, len(values):] = -1
        self.neighbor_len[row] = len(values)
        self._nbr_tuples.pop(row, None)
        self.wiring_epoch += 1

    def set_neighbors_many(
        self, rows: np.ndarray, neighbor_ids: np.ndarray
    ) -> None:
        """Install ``neighbor_ids[i]`` as the table of distinct ``rows[i]``.

        ``neighbor_ids`` is a ``(len(rows), width)`` id matrix, so every
        row gets a table of ``width`` entries. Rows without a table take
        compact slots in ``rows`` order, as a per-row replay would.
        """
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(neighbor_ids, dtype=np.int64)
        if values.ndim != 2 or len(values) != len(rows):
            raise ConfigurationError(
                f"need one neighbor row per store row: {len(rows)} rows, "
                f"neighbor matrix of shape {values.shape}"
            )
        width = values.shape[1]
        self._ensure_neighbor_width(width)
        index = self._nbr_index[rows]
        fresh = np.flatnonzero(index == 0)
        if len(fresh):
            start = self._nbr_used
            self._ensure_neighbor_rows(start + len(fresh))
            index[fresh] = np.arange(start, start + len(fresh))
            self._nbr_index[rows[fresh]] = index[fresh]
            self._nbr_used = start + len(fresh)
        self._nbr_table[index, :width] = values
        self._nbr_table[index, width:] = -1
        self.neighbor_len[rows] = width
        if self._nbr_tuples:
            for row in rows.tolist():
                self._nbr_tuples.pop(row, None)
        self.wiring_epoch += 1

    def neighbors_of(self, row: int) -> Tuple[int, ...]:
        cached = self._nbr_tuples.get(row)
        if cached is not None:
            return cached
        count = self.neighbor_len.item(row)
        if count == 0:
            return ()
        index = self._nbr_index.item(row)
        neighbors = tuple(self._nbr_table[index, :count].tolist())
        self._nbr_tuples[row] = neighbors
        return neighbors

    def neighbor_matrix(self, rows: np.ndarray, width: int) -> np.ndarray:
        """Gather the ``(len(rows), width)`` neighbor-id matrix for ``rows``.

        Entries beyond a row's ``neighbor_len`` are -1; rows without a
        neighbor table resolve through the all-empty sentinel. ``width``
        must not exceed the widest table ever set on this store.
        """
        if width > self._nbr_table.shape[1]:
            raise ConfigurationError(
                f"neighbor width {width} exceeds stored tables "
                f"({self._nbr_table.shape[1]})"
            )
        return self._nbr_table[self._nbr_index[rows], :width]

