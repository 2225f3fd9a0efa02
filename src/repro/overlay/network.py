"""The overlay network: a population of ``N`` nodes on an identifier ring.

:class:`OverlayNetwork` owns the node population that both the SOS
deployment (:mod:`repro.sos.deployment`) and the attacker
(:mod:`repro.attacks`) operate on. It provides O(1) lookup by identifier,
random sampling, health bookkeeping, and per-layer views.

State lives in an :class:`~repro.overlay.arrays.OverlayStore` (contiguous
numpy columns); the :class:`~repro.overlay.node.OverlayNode` objects this
class hands out are lazily-created cached views over those columns, so a
million-node network costs a few flat arrays, not a million Python
objects, while the object API keeps working unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

import numpy as np

from repro.errors import ConfigurationError, RoutingError
from repro.overlay.arrays import OverlayStore
from repro.overlay.identifiers import DEFAULT_ID_BITS, IdentifierSpace
from repro.overlay.node import OverlayNode
from repro.utils.seeding import SeedLike, make_rng


class OverlayNetwork:
    """A population of overlay nodes with unique ring identifiers.

    Parameters
    ----------
    size:
        Number of nodes (``N`` in the paper).
    bits:
        Identifier-ring width; must satisfy ``2**bits >= size``.
    rng:
        Seed or generator controlling identifier placement.

    Examples
    --------
    >>> network = OverlayNetwork(100, rng=7)
    >>> len(network)
    100
    >>> node_id = network.node_ids[0]
    >>> network.get(node_id).node_id == node_id
    True
    """

    def __init__(
        self,
        size: int,
        bits: int = DEFAULT_ID_BITS,
        rng: SeedLike = None,
    ) -> None:
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ConfigurationError(f"size must be a positive int, got {size!r}")
        self.space = IdentifierSpace(bits)
        if self.space.size < size:
            raise ConfigurationError(
                f"ring of size {self.space.size} cannot hold {size} unique nodes"
            )
        self._rng = make_rng(rng)
        identifiers = self._draw_unique_identifiers(size)
        #: Columnar node state; creation order == address index order.
        self.store = OverlayStore(identifiers)
        self._views: Dict[int, OverlayNode] = {}

    def _draw_unique_identifiers(self, count: int) -> np.ndarray:
        """Draw ``count`` distinct ring positions uniformly at random.

        RNG-stream compatible with the historical scalar loop: the dense
        path takes the head of one whole-space permutation; the sparse
        path consumes the same ``integers`` blocks (twice the number of
        ids still missing) and keeps the first ``count`` distinct values
        of the draw stream, exactly like the old add-to-a-set loop with
        its early break mid-block, and returns them sorted.

        The sparse path never needs the draw order inside a block: a
        chunk of ``k`` draws, where ``k`` ids are still missing, holds at
        most ``k`` new values, so every new value in it is kept. Each
        chunk is sorted, deduplicated by adjacent difference and tested
        against the sorted ids so far with ``searchsorted``; the next
        chunk is as long as the ids still missing. (No ``np.unique``:
        its stable argsort, or numpy >= 2.3's hash path, costs 30-70x
        one ``np.sort`` at 10**6 ids.)
        """
        if count > self.space.size // 2:
            # Dense ring: permute the whole space (only feasible for small
            # test rings).
            return self._rng.permutation(self.space.size)[:count].astype(np.int64)
        ids = np.empty(0, dtype=np.int64)
        while len(ids) < count:
            draws = self._rng.integers(
                0, self.space.size, size=(count - len(ids)) * 2, dtype=np.int64
            )
            start = 0
            while start < len(draws) and len(ids) < count:
                stop = start + count - len(ids)
                chunk = np.sort(draws[start:stop])
                start = stop
                chunk = chunk[np.r_[True, chunk[1:] != chunk[:-1]]]
                if len(ids) == 0:
                    ids = chunk
                else:
                    at = np.searchsorted(ids, chunk)
                    known = at < len(ids)
                    known[known] = ids[at[known]] == chunk[known]
                    ids = np.insert(ids, at[~known], chunk[~known])
        return ids

    # ------------------------------------------------------------------
    # Lookup and iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.store)

    def __iter__(self) -> Iterator[OverlayNode]:
        # Creation order, like the historical insertion-ordered dict.
        for row in range(len(self.store)):
            yield self._view(row)

    def __contains__(self, node_id: int) -> bool:
        return self.store.row_of(node_id) >= 0

    def _view(self, row: int) -> OverlayNode:
        node_id = int(self.store.ids[row])
        view = self._views.get(node_id)
        if view is None:
            view = OverlayNode._from_store(self.store, row, f"node-{row}")
            self._views[node_id] = view
        return view

    @property
    def node_ids(self) -> List[int]:
        """All identifiers, sorted clockwise from 0."""
        return self.store.sorted_ids.tolist()

    def get(self, node_id: int) -> OverlayNode:
        """Return the node with ``node_id`` or raise :class:`RoutingError`."""
        view = self._views.get(node_id)
        if view is not None:
            return view
        row = self.store.row_of(node_id)
        if row < 0:
            raise RoutingError(f"no node with identifier {node_id}")
        return self._view(row)

    def nodes(self, ids: Iterable[int]) -> List[OverlayNode]:
        """Resolve many identifiers at once."""
        return [self.get(node_id) for node_id in ids]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _views_where(self, mask: np.ndarray) -> List[OverlayNode]:
        return [self._view(int(row)) for row in np.flatnonzero(mask)]

    @property
    def sos_nodes(self) -> List[OverlayNode]:
        """Nodes enrolled in the SOS system."""
        return self._views_where(self.store.layer != 0)

    # ------------------------------------------------------------------
    # Sampling and mutation
    # ------------------------------------------------------------------
    def reset_health(self) -> None:
        """Restore every node to GOOD (fresh trial in Monte Carlo runs)."""
        self.store.reset_health()

    def reset_roles(self) -> None:
        """Clear SOS enrollment (layer + neighbor tables) on every node."""
        self.store.reset_roles()
