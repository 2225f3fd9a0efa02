"""Chord distributed hash table (Stoica et al., SIGCOMM 2001).

SOS routes messages to beacons and secret servlets over Chord (paper §2):
the beacon for a target is the Chord node owning ``hash(target)``. This
module implements the full protocol at simulation level — every node keeps
a finger table, predecessor pointer, and successor list, and lookups hop
through fingers exactly as the distributed protocol would, including
failure handling via successor lists.

Routing state is columnar: one sorted int64 identifier array plus
``(n, bits)`` finger, ``(n, W)`` successor, predecessor, and liveness
columns per ring. Identifiers are int64 end to end, which is why ``bits``
is at most :data:`~repro.overlay.identifiers.MAX_ID_BITS`.
:class:`ChordNode` objects are cached views whose list-valued properties
materialize lazily from the columns, so the scalar protocol code reads
unchanged while :meth:`ChordRing.rebuild_routing_state` and
:meth:`ChordRing.lookup_batch` write/read the columns directly with no
per-node Python loops.

Supported operations:

* bulk :meth:`ChordRing.build` with exact routing state;
* incremental :meth:`ChordRing.join` followed by :meth:`ChordRing.stabilize`
  rounds (``stabilize``/``notify``/``fix_fingers`` from the paper's Fig. 6);
* node failure (:meth:`ChordRing.fail`) and graceful departure
  (:meth:`ChordRing.leave`), with lookups routing around dead nodes;
* iterative :meth:`ChordRing.lookup` returning the full hop path, so tests
  can assert the O(log N) bound, and :meth:`ChordRing.lookup_batch`, one
  hop-synchronous numpy loop that matches it query for query.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, RoutingError
from repro.overlay.identifiers import DEFAULT_ID_BITS, IdentifierSpace

#: Default successor-list length; Chord recommends O(log N), and 8 covers
#: the simulated ring sizes used here.
DEFAULT_SUCCESSOR_LIST = 8


class _RoutingColumns:
    """The flat-array routing state of one ring.

    Rows are sorted by identifier and include dead nodes (live nodes'
    stale pointers may still reference them). ``epoch`` is bumped on
    every mutation; views and the batch-lookup cache key on it.
    """

    __slots__ = (
        "bits",
        "ids",
        "alive",
        "fingers",
        "fingers_set",
        "succ",
        "succ_len",
        "pred",
        "epoch",
    )

    def __init__(self, bits: int, succ_width: int) -> None:
        self.bits = bits
        self.ids = np.empty(0, dtype=np.int64)
        self.alive = np.empty(0, dtype=bool)
        self.fingers = np.full((0, bits), -1, dtype=np.int64)
        self.fingers_set = np.empty(0, dtype=bool)
        self.succ = np.full((0, succ_width), -1, dtype=np.int64)
        self.succ_len = np.empty(0, dtype=np.int32)
        self.pred = np.empty(0, dtype=np.int64)
        self.epoch = 0

    def __len__(self) -> int:
        return len(self.ids)

    def row_of(self, node_id: int) -> int:
        index = int(np.searchsorted(self.ids, node_id))
        if index < len(self.ids) and self.ids[index] == node_id:
            return index
        return -1

    def install(self, sorted_ids: Sequence[int]) -> None:
        """Bulk-install a fresh (all-live, no routing state) population."""
        n = len(sorted_ids)
        self.ids = np.asarray(sorted_ids, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.fingers = np.full((n, self.bits), -1, dtype=np.int64)
        self.fingers_set = np.zeros(n, dtype=bool)
        self.succ = np.full((n, self.succ.shape[1]), -1, dtype=np.int64)
        self.succ_len = np.zeros(n, dtype=np.int32)
        self.pred = np.full(n, -1, dtype=np.int64)
        self.epoch += 1

    def insert(self, node_id: int) -> int:
        """Insert a new (live, blank) row, keeping ids sorted."""
        pos = int(np.searchsorted(self.ids, node_id))
        self.ids = np.insert(self.ids, pos, node_id)
        self.alive = np.insert(self.alive, pos, True)
        blank = np.full(self.bits, -1, dtype=np.int64)
        self.fingers = np.insert(self.fingers, pos, blank, axis=0)
        self.fingers_set = np.insert(self.fingers_set, pos, False)
        blank_s = np.full(self.succ.shape[1], -1, dtype=np.int64)
        self.succ = np.insert(self.succ, pos, blank_s, axis=0)
        self.succ_len = np.insert(self.succ_len, pos, 0)
        self.pred = np.insert(self.pred, pos, -1)
        self.epoch += 1
        return pos

    def ensure_succ_width(self, width: int) -> None:
        if width > self.succ.shape[1]:
            grown = np.full((len(self.ids), width), -1, dtype=np.int64)
            grown[:, : self.succ.shape[1]] = self.succ
            self.succ = grown

    def set_fingers(self, row: int, values: Sequence[int]) -> None:
        if len(values) == 0:
            self.fingers[row, :] = -1
            self.fingers_set[row] = False
        else:
            if len(values) != self.bits:
                raise ConfigurationError(
                    f"finger table must have {self.bits} entries, "
                    f"got {len(values)}"
                )
            self.fingers[row, :] = np.asarray(values, dtype=np.int64)
            self.fingers_set[row] = True
        self.epoch += 1

    def set_successor_list(self, row: int, values: Sequence[int]) -> None:
        self.ensure_succ_width(len(values))
        count = len(values)
        if count:
            self.succ[row, :count] = np.asarray(values, dtype=np.int64)
        self.succ[row, count:] = -1
        self.succ_len[row] = count
        self.epoch += 1


class ChordNode:
    """Routing state of one Chord participant (view over ring columns).

    List-valued properties (``fingers``, ``successor_list``) materialize
    from the columns lazily and are cached until the ring's next
    mutation, so the scalar protocol/lookup code pays the column read
    once per (node, epoch) rather than per access.
    """

    __slots__ = (
        "_cols",
        "_kv",
        "node_id",
        "_row",
        "_epoch",
        "_fingers_cache",
        "_succ_cache",
    )

    def __init__(
        self,
        node_id: int,
        cols: Optional[_RoutingColumns] = None,
        kv: Optional[Dict[int, Dict[int, object]]] = None,
    ) -> None:
        if cols is None:
            # Standalone node (no ring): private single-row columns.
            cols = _RoutingColumns(DEFAULT_ID_BITS, DEFAULT_SUCCESSOR_LIST)
            cols.install([node_id])
        self._cols = cols
        self._kv = kv if kv is not None else {}
        self.node_id = node_id
        self._row = -1
        self._epoch = -1
        self._fingers_cache: Optional[List[int]] = None
        self._succ_cache: Optional[List[int]] = None

    def _sync(self) -> int:
        cols = self._cols
        if self._epoch != cols.epoch:
            self._row = cols.row_of(self.node_id)
            self._fingers_cache = None
            self._succ_cache = None
            self._epoch = cols.epoch
        return self._row

    # -- column-backed attributes --------------------------------------
    @property
    def fingers(self) -> List[int]:
        row = self._sync()
        if self._fingers_cache is None:
            if self._cols.fingers_set[row]:
                self._fingers_cache = self._cols.fingers[row].tolist()
            else:
                self._fingers_cache = []
        return self._fingers_cache

    @fingers.setter
    def fingers(self, values: Sequence[int]) -> None:
        row = self._sync()
        self._cols.set_fingers(row, list(values))

    @property
    def successor_list(self) -> List[int]:
        row = self._sync()
        if self._succ_cache is None:
            count = int(self._cols.succ_len[row])
            self._succ_cache = self._cols.succ[row, :count].tolist()
        return self._succ_cache

    @successor_list.setter
    def successor_list(self, values: Sequence[int]) -> None:
        row = self._sync()
        self._cols.set_successor_list(row, list(values))

    @property
    def predecessor(self) -> Optional[int]:
        row = self._sync()
        value = self._cols.pred[row]
        return None if value == -1 else int(value)

    @predecessor.setter
    def predecessor(self, value: Optional[int]) -> None:
        row = self._sync()
        self._cols.pred[row] = -1 if value is None else value
        self._cols.epoch += 1

    @property
    def alive(self) -> bool:
        row = self._sync()
        return bool(self._cols.alive[row])

    @alive.setter
    def alive(self, value: bool) -> None:
        row = self._sync()
        self._cols.alive[row] = bool(value)
        self._cols.epoch += 1

    @property
    def store(self) -> Dict[int, object]:
        """Key-value replica storage hosted on this node."""
        existing = self._kv.get(self.node_id)
        if existing is None:
            existing = {}
            self._kv[self.node_id] = existing
        return existing

    @property
    def successor(self) -> int:
        """First live entry of the successor list (primary successor)."""
        successors = self.successor_list
        if not successors:
            return self.node_id
        return successors[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChordNode(node_id={self.node_id}, fingers={self.fingers}, "
            f"successor_list={self.successor_list}, "
            f"predecessor={self.predecessor}, alive={self.alive})"
        )


@dataclasses.dataclass(frozen=True)
class BatchLookupResult:
    """Outcome of a batched Chord lookup (one row per query).

    ``owners[i]`` is -1 when query ``i`` failed; ``hops[i]`` counts
    forwarding hops exactly as :attr:`LookupResult.hops` does.
    """

    owners: np.ndarray
    hops: np.ndarray
    succeeded: np.ndarray

    def __len__(self) -> int:
        return len(self.owners)


@dataclasses.dataclass(frozen=True)
class LookupResult:
    """Outcome of an iterative Chord lookup."""

    key: int
    owner: Optional[int]
    path: Tuple[int, ...]
    succeeded: bool

    @property
    def hops(self) -> int:
        """Number of forwarding hops (path length minus the origin)."""
        return max(0, len(self.path) - 1)


class ChordRing:
    """A simulated Chord ring.

    Examples
    --------
    >>> ring = ChordRing.build([1, 18, 36, 99, 200], bits=8)
    >>> ring.find_successor(37)
    99
    >>> result = ring.lookup(37, start=1)
    >>> result.owner
    99
    """

    def __init__(
        self,
        bits: int = DEFAULT_ID_BITS,
        successor_list_length: int = DEFAULT_SUCCESSOR_LIST,
    ) -> None:
        if successor_list_length < 1:
            raise ConfigurationError("successor_list_length must be >= 1")
        self.space = IdentifierSpace(bits)
        self.successor_list_length = successor_list_length
        self._cols = _RoutingColumns(bits, successor_list_length)
        self._kv: Dict[int, Dict[int, object]] = {}
        self._views: Dict[int, ChordNode] = {}
        self._alive_sorted: List[int] = []
        #: Same membership as _alive_sorted; O(1) liveness tests keep the
        #: scalar lookup path as fast as the old per-node dict.
        self._alive_set: set = set()
        self._batch_cache: Optional[Tuple[int, Dict[str, object]]] = None

    @property
    def _routing_epoch(self) -> int:
        """Mutation counter keying the batch cache and view caches."""
        return self._cols.epoch

    def _invalidate_batch_cache(self) -> None:
        self._cols.epoch += 1

    def _node_view(self, node_id: int) -> ChordNode:
        view = self._views.get(node_id)
        if view is None:
            view = ChordNode(node_id, cols=self._cols, kv=self._kv)
            self._views[node_id] = view
        return view

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        node_ids: Sequence[int],
        bits: int = DEFAULT_ID_BITS,
        successor_list_length: int = DEFAULT_SUCCESSOR_LIST,
    ) -> "ChordRing":
        """Build a ring with exact routing state for ``node_ids``."""
        ring = cls(bits=bits, successor_list_length=successor_list_length)
        if len(node_ids) == 0:
            raise ConfigurationError("cannot build an empty ring")
        ids = ring._id_array(node_ids, in_ring=True)
        ids.sort()
        same = ids[1:] == ids[:-1]
        if bool(same.any()):
            dupe = int(ids[1:][same][0])
            raise ConfigurationError(f"duplicate node id {dupe}")
        ring._alive_sorted = ids.tolist()
        ring._alive_set = set(ring._alive_sorted)
        ring._cols.install(ring._alive_sorted)
        ring.rebuild_routing_state()
        return ring

    def _id_array(self, values: object, in_ring: bool) -> np.ndarray:
        """``values`` as a flat int64 array of identifiers.

        A value that is not an integer (a float, a string, a Python int
        too wide for int64) raises the :class:`ConfigurationError` of
        :meth:`IdentifierSpace.validate` for the first such value, as
        given, as the per-query :meth:`lookup` does. With ``in_ring``,
        every value must also lie on the ring.
        """
        arr = np.asarray(values)
        if arr.dtype.kind not in "iu":
            for value in values if arr.ndim == 1 else arr.ravel().tolist():
                self.space.validate(value)
        arr = arr.ravel()
        if in_ring:
            outside = (arr < 0) | (arr >= self.space.size)
            if bool(outside.any()):
                self.space.validate(int(arr[int(np.argmax(outside))]))
        return arr.astype(np.int64)

    def rebuild_routing_state(self) -> None:
        """Recompute exact fingers, successor lists, and predecessors for
        every live node (an omniscient stabilization).

        Vectorized: finger starts for all (node, index) pairs are one
        modular broadcast, owners one ``searchsorted`` over the sorted
        live ring, successor lists one roll of ring offsets — written
        straight into the routing columns (no per-node Python lists, the
        step that used to dominate memory and time on large rings). The
        per-node reference it must match lives in the test suite.
        """
        self._invalidate_batch_cache()
        ring = self._alive_sorted
        n = len(ring)
        if n == 0:
            return
        cols = self._cols
        ids = np.asarray(ring, dtype=np.int64)
        powers = np.int64(1) << np.arange(self.space.bits, dtype=np.int64)
        starts = (ids[:, None] + powers[None, :]) % np.int64(self.space.size)
        finger_idx = np.searchsorted(ids, starts, side="left") % n
        finger_rows = ids[finger_idx]
        length = min(self.successor_list_length, n - 1) if n > 1 else 1
        succ_idx = (np.arange(n)[:, None] + 1 + np.arange(length)[None, :]) % n
        succ_rows = ids[succ_idx]
        predecessors = np.roll(ids, 1)
        cols.ensure_succ_width(length)
        if len(cols) == n:
            # Every row is live: whole-column writes.
            cols.fingers[:, :] = finger_rows
            cols.fingers_set[:] = True
            cols.succ[:, :length] = succ_rows
            cols.succ[:, length:] = -1
            cols.succ_len[:] = length
            cols.pred[:] = predecessors
        else:
            rows = np.searchsorted(cols.ids, ids)
            cols.fingers[rows] = finger_rows
            cols.fingers_set[rows] = True
            cols.succ[rows, :length] = succ_rows
            cols.succ[rows, length:] = -1
            cols.succ_len[rows] = length
            cols.pred[rows] = predecessors
        cols.epoch += 1
        if len(cols) == n:
            # Every row is live, so rebuild's index matrices are the row
            # positions the batch encoder would otherwise search for:
            # prime the cache (on a 10^5-node ring, build plus a first
            # 10k-query batch takes 0.28 s of CPU primed, 0.41 s not).
            self._batch_state(finger_pos=finger_idx, succ_pos=succ_idx)

    # ------------------------------------------------------------------
    # Oracle views (ground truth over live nodes)
    # ------------------------------------------------------------------
    def _ideal_successor(self, key: int) -> int:
        """The live node owning ``key`` (first node at or after it)."""
        if not self._alive_sorted:
            raise RoutingError("ring has no live nodes")
        index = bisect_left(self._alive_sorted, key)
        if index == len(self._alive_sorted):
            index = 0
        return self._alive_sorted[index]

    def _ideal_predecessor(self, node_id: int) -> int:
        index = bisect_left(self._alive_sorted, node_id)
        return self._alive_sorted[index - 1]

    def _ideal_successor_list(self, node_id: int) -> List[int]:
        ring = self._alive_sorted
        index = bisect_right(ring, node_id)
        length = min(self.successor_list_length, max(1, len(ring) - 1) if len(ring) > 1 else 1)
        result = []
        for offset in range(length):
            result.append(ring[(index + offset) % len(ring)])
        return result

    def find_successor(self, key: int) -> int:
        """Ground-truth owner of ``key`` among live nodes."""
        key = self.space.validate(key)
        return self._ideal_successor(key)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._alive_sorted)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._alive_set

    @property
    def live_node_ids(self) -> List[int]:
        return list(self._alive_sorted)

    def node(self, node_id: int) -> ChordNode:
        if self._cols.row_of(node_id) < 0:
            raise RoutingError(f"unknown chord node {node_id}")
        return self._node_view(node_id)

    def join(self, node_id: int) -> None:
        """Add a node with only its successor pointer set (Chord join).

        The new node learns its successor via a lookup through an existing
        member; fingers, predecessor, and successor list converge through
        subsequent :meth:`stabilize` rounds.
        """
        node_id = self.space.validate(node_id)
        row = self._cols.row_of(node_id)
        if row >= 0 and bool(self._cols.alive[row]):
            raise ConfigurationError(f"node {node_id} already in the ring")
        self._invalidate_batch_cache()
        if row < 0:
            self._cols.insert(node_id)
        else:
            # Dead node rejoining: fresh state, fresh storage.
            self._cols.alive[row] = True
            self._kv.pop(node_id, None)
            self._cols.epoch += 1
        node = self._node_view(node_id)
        if self._alive_sorted:
            successor = self._ideal_successor(node_id)
            node.successor_list = [successor]
            node.fingers = [successor] * self.space.bits
        else:
            node.successor_list = [node_id]
            node.fingers = [node_id] * self.space.bits
        node.predecessor = None
        insort(self._alive_sorted, node_id)
        self._alive_set.add(node_id)

    def fail(self, node_id: int) -> None:
        """Crash-fail a node: it disappears without notifying anyone.

        Other nodes' routing state still references it until stabilization
        (or :meth:`rebuild_routing_state`) repairs the ring; lookups route
        around it via successor lists in the meantime.
        """
        node = self.node(node_id)
        if not node.alive:
            return
        self._invalidate_batch_cache()
        node.alive = False
        index = bisect_left(self._alive_sorted, node_id)
        if index < len(self._alive_sorted) and self._alive_sorted[index] == node_id:
            self._alive_sorted.pop(index)
        self._alive_set.discard(node_id)
        if not self._alive_sorted:
            raise RoutingError("last live node failed; ring is empty")

    def leave(self, node_id: int) -> None:
        """Graceful departure: hand pointers over before going away."""
        node = self.node(node_id)
        if not node.alive:
            return
        self._invalidate_batch_cache()
        predecessor_id = self._ideal_predecessor(node_id)
        successor_id = self._ideal_successor((node_id + 1) % self.space.size)
        self.fail(node_id)
        if predecessor_id != node_id:
            predecessor = self._node_view(predecessor_id)
            predecessor.successor_list = self._ideal_successor_list(predecessor_id)
        if successor_id != node_id:
            successor = self._node_view(successor_id)
            if successor.predecessor == node_id:
                successor.predecessor = predecessor_id if predecessor_id != node_id else None

    # ------------------------------------------------------------------
    # Stabilization protocol (Chord Fig. 6)
    # ------------------------------------------------------------------
    def stabilize(self, rounds: int = 1) -> None:
        """Run ``rounds`` of stabilize/notify/fix_fingers on every live node."""
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        self._invalidate_batch_cache()
        for _ in range(rounds):
            for node_id in list(self._alive_sorted):
                node = self._node_view(node_id)
                if node.alive:
                    self._stabilize_node(node)
            for node_id in list(self._alive_sorted):
                node = self._node_view(node_id)
                if node.alive:
                    self._fix_fingers(node)
                    self._refresh_successor_list(node)

    def _first_live_successor(self, node: ChordNode) -> int:
        """First live entry in the successor list, pruning dead ones."""
        for candidate in node.successor_list:
            if candidate in self:
                return candidate
        # Whole list dead: fall back to any live finger, then to self.
        for candidate in node.fingers:
            if candidate in self:
                return candidate
        return node.node_id

    def _stabilize_node(self, node: ChordNode) -> None:
        successor_id = self._first_live_successor(node)
        successor = self._node_view(successor_id)
        candidate = successor.predecessor
        if (
            candidate is not None
            and candidate in self
            and self.space.in_open_interval(candidate, node.node_id, successor_id)
        ):
            successor_id = candidate
            successor = self._node_view(successor_id)
        if successor_id == node.node_id and len(self._alive_sorted) > 1:
            # Pointing at ourselves on a multi-node ring: adopt any live node.
            successor_id = self._ideal_successor((node.node_id + 1) % self.space.size)
            successor = self._node_view(successor_id)
        node.successor_list = ([successor_id] + [
            s for s in node.successor_list if s != successor_id
        ])[: self.successor_list_length]
        # notify(successor, node)
        if (
            successor.predecessor is None
            or successor.predecessor not in self
            or self.space.in_open_interval(
                node.node_id, successor.predecessor, successor_id
            )
        ):
            if successor_id != node.node_id:
                successor.predecessor = node.node_id

    def _fix_fingers(self, node: ChordNode) -> None:
        fingers = []
        for i in range(self.space.bits):
            owner = self._lookup_internal(
                self.space.finger_start(node.node_id, i), node.node_id
            )
            # Node 0 is a valid owner: test for a failed lookup, not falsity.
            fingers.append(node.successor if owner is None else owner)
        node.fingers = fingers

    def _refresh_successor_list(self, node: ChordNode) -> None:
        chain = []
        current = self._first_live_successor(node)
        for _ in range(self.successor_list_length):
            if current == node.node_id and chain:
                break
            chain.append(current)
            current = self._first_live_successor(self._node_view(current))
            if current in chain:
                break
        node.successor_list = chain or [node.node_id]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _closest_preceding_node(self, node: ChordNode, key: int) -> int:
        for finger in reversed(node.fingers):
            if finger in self and self.space.in_open_interval(
                finger, node.node_id, key
            ):
                return finger
        for candidate in node.successor_list:
            if candidate in self and self.space.in_open_interval(
                candidate, node.node_id, key
            ):
                return candidate
        return node.node_id

    def _lookup_internal(self, key: int, start: int) -> Optional[int]:
        result = self.lookup(key, start)
        return result.owner if result.succeeded else None

    def lookup(self, key: int, start: int) -> LookupResult:
        """Iteratively resolve the owner of ``key`` starting at ``start``.

        Follows fingers exactly as a distributed Chord lookup would: at each
        step the current node either answers (its live successor owns the
        key) or forwards to the closest preceding live finger. Dead next
        hops are skipped via successor lists. Gives up (``succeeded=False``)
        after ``2 * bits + len(ring)`` hops, which only happens on heavily
        corrupted routing state.
        """
        key = self.space.validate(key)
        if start not in self:
            raise RoutingError(f"lookup must start at a live node, got {start}")
        path = [start]
        current = self._node_view(start)
        max_hops = 2 * self.space.bits + len(self._alive_sorted)
        for _ in range(max_hops):
            successor_id = self._first_live_successor(current)
            if successor_id == current.node_id and len(self._alive_sorted) == 1:
                return LookupResult(key, current.node_id, tuple(path), True)
            if self.space.in_half_open_interval(key, current.node_id, successor_id):
                path.append(successor_id)
                return LookupResult(key, successor_id, tuple(path), True)
            next_id = self._closest_preceding_node(current, key)
            if next_id == current.node_id:
                next_id = successor_id
            if next_id == current.node_id:
                break
            path.append(next_id)
            current = self._node_view(next_id)
        return LookupResult(key, None, tuple(path), False)

    def lookup_batch(
        self,
        keys: Sequence[int],
        starts: Union[int, Sequence[int]],
    ) -> BatchLookupResult:
        """Resolve many lookups at once, hop-for-hop like :meth:`lookup`.

        All queries advance together in hop-synchronous numpy batches:
        per hop, one gather of every query's finger-distance row (see
        :meth:`_batch_state`), vectorized compares on clockwise
        distances, and one mask update. The same loop serves pristine and
        churned rings. Per-query :meth:`lookup` is the oracle — owners,
        hop counts, and success flags match it exactly (property-tested
        over random rings with failures, joins, leaves and stabilization).
        ``starts`` may be a scalar (broadcast) or one start per key.
        Keys and starts must be integers, as :meth:`lookup` requires.

        Examples
        --------
        >>> ring = ChordRing.build([1, 18, 36, 99, 200], bits=8)
        >>> batch = ring.lookup_batch([37, 210], starts=[1, 99])
        >>> batch.owners.tolist()
        [99, 1]
        >>> batch.succeeded.tolist()
        [True, True]
        >>> int(batch.hops[0]) == ring.lookup(37, start=1).hops
        True
        """
        key_arr = self._id_array(keys, in_ring=True)
        queries = len(key_arr)
        start_arr = self._id_array(starts, in_ring=False)
        if np.ndim(starts) == 0:
            start_arr = np.full(queries, start_arr[0])
        if len(start_arr) != queries:
            raise ConfigurationError(
                f"got {queries} keys but {len(start_arr)} starts"
            )
        if queries == 0:
            return BatchLookupResult(
                owners=np.empty(0, dtype=np.int64),
                hops=np.empty(0, dtype=np.int64),
                succeeded=np.empty(0, dtype=bool),
            )
        state = self._batch_state()
        all_ids: np.ndarray = state["all_ids"]
        start_pos = np.searchsorted(all_ids, start_arr)
        clipped = np.minimum(start_pos, len(all_ids) - 1)
        live_start = (all_ids[clipped] == start_arr) & state["alive"][clipped]
        if not bool(live_start.all()):
            bad = int(start_arr[int(np.argmax(~live_start))])
            raise RoutingError(f"lookup must start at a live node, got {bad}")
        if state["n_live"] == 1:
            # The sole node answers every key without forwarding.
            return BatchLookupResult(
                owners=all_ids[start_pos],
                hops=np.zeros(queries, dtype=np.int64),
                succeeded=np.ones(queries, dtype=bool),
            )
        dist_f_rev: np.ndarray = state["dist_f_rev"]
        finger_pos: np.ndarray = state["finger_pos"]
        succ0_id: np.ndarray = state["succ0_id"]
        succ0_pos: np.ndarray = state["succ0_pos"]
        dist0: np.ndarray = state["dist0"]
        bits = self.space.bits
        # The ring size is a power of two, so masking a two's-complement
        # difference to ``bits`` is the clockwise (modular) distance.
        mask = np.int64(self.space.size - 1)
        keys_before = key_arr - 1

        current = start_pos
        owners = np.full(queries, -1, dtype=np.int64)
        hops = np.zeros(queries, dtype=np.int64)
        succeeded = np.zeros(queries, dtype=bool)
        active_idx = np.arange(queries)
        max_hops = 2 * bits + int(state["n_live"])

        for hop in range(max_hops):
            cur = current[active_idx]
            # before = d(current, key) - 1 mod size: an entry at clockwise
            # distance d owns the key (key in (current, entry]) iff
            # before < d, and precedes it (entry in (current, key), the
            # whole ring but current when key == current) iff d <= before.
            before = (keys_before[active_idx] - all_ids[cur]) & mask
            owned = before < dist0[cur]
            done = active_idx[owned]
            owners[done] = succ0_id[cur[owned]]
            hops[done] = hop + 1
            succeeded[done] = True
            forward = ~owned
            active_idx = active_idx[forward]
            if len(active_idx) == 0:
                break
            cur = cur[forward]
            before = before[forward, None]
            rev_mask = dist_f_rev[cur] <= before
            # Highest preceding finger, like the reversed scalar scan;
            # gathering the argmax column back doubles as the any-test.
            rev_col = np.argmax(rev_mask, axis=1)
            f_any = rev_mask[np.arange(len(cur)), rev_col]
            f_col = (bits - 1) - rev_col
            # With no preceding finger, the scalar scan tries the
            # successor list next. Its first live entry is the first live
            # successor, which precedes the key (else the key was owned
            # above), so the next hop is that successor either way. It is
            # never current itself, where the scalar path would give up:
            # a successor equal to current owns every key.
            current[active_idx] = np.where(
                f_any, finger_pos[cur, f_col], succ0_pos[cur]
            )
        else:
            # Queries still active after max_hops failed, like the scalar
            # path, having hopped on every round.
            hops[active_idx] = max_hops
        return BatchLookupResult(owners=owners, hops=hops, succeeded=succeeded)

    def _batch_state(
        self,
        finger_pos: Optional[np.ndarray] = None,
        succ_pos: Optional[np.ndarray] = None,
    ) -> Dict[str, object]:
        """Encode the routing columns into the batch arrays, cached per epoch.

        Liveness is folded into the arrays here, once per epoch, so the
        hop loop needs no masks:

        * ``dist_f_rev`` holds the clockwise distance from each row's
          node to its fingers, highest finger first;
        * ``succ0_pos``/``succ0_id``/``dist0`` are each row's first live
          successor in :meth:`_first_live_successor`'s order (successor
          list, then fingers, then the node itself) and its distance.

        A finger that is dead, unset or the node itself sits at distance
        ``size``, so it never precedes a key; a first live successor that
        is the node itself sits there too, so it owns every key.

        Dead rows are encoded too, since live nodes' stale pointers may
        still reference them. Every routing-state mutation (join/fail/
        leave/stabilize/rebuild, and any view-property write) bumps the
        column epoch, invalidating the cache. ``finger_pos``/``succ_pos``
        are the entries' row positions when the caller already holds them
        (a rebuild of an all-live ring does); otherwise they are one
        ``searchsorted`` each.
        """
        cached = self._batch_cache
        if cached is not None and cached[0] == self._routing_epoch:
            return cached[1]
        cols = self._cols
        size = np.int64(self.space.size)
        mask = size - 1
        all_ids = cols.ids
        alive = cols.alive
        last = len(all_ids) - 1
        fingers = cols.fingers
        succ = cols.succ[:, : max(int(cols.succ_len.max(initial=0)), 1)]
        if finger_pos is None:
            finger_pos = np.minimum(np.searchsorted(all_ids, fingers), last)
        if succ_pos is None:
            succ_pos = np.minimum(np.searchsorted(all_ids, succ), last)
        # Unset entries hold -1, which matches no identifier.
        live_f = (all_ids[finger_pos] == fingers) & alive[finger_pos]
        live_s = (all_ids[succ_pos] == succ) & alive[succ_pos]

        def distance(entries: np.ndarray, live: np.ndarray) -> np.ndarray:
            gap = (entries - all_ids[:, None]) & mask
            return np.where(live & (gap != 0), gap, size)

        dist_f = distance(fingers, live_f)
        rows = np.arange(len(all_ids))
        succ0_pos = succ_pos[rows, np.argmax(live_s, axis=1)]
        no_succ = np.nonzero(~live_s.any(axis=1))[0]
        if len(no_succ):
            f_live = live_f[no_succ]
            succ0_pos[no_succ] = np.where(
                f_live.any(axis=1),
                finger_pos[no_succ, np.argmax(f_live, axis=1)],
                no_succ,
            )
        succ0_id = all_ids[succ0_pos]
        state: Dict[str, object] = {
            "all_ids": all_ids,
            "alive": alive,
            "n_live": len(self._alive_sorted),
            # Contiguous reversed copy: the per-hop highest-finger argmax
            # scans left-to-right instead of through a strided view.
            "dist_f_rev": np.ascontiguousarray(dist_f[:, ::-1]),
            "finger_pos": finger_pos,
            "succ0_id": succ0_id,
            "succ0_pos": succ0_pos,
            "dist0": distance(succ0_id[:, None], True)[:, 0],
        }
        self._batch_cache = (self._routing_epoch, state)
        return state

    # ------------------------------------------------------------------
    # Key-value storage with successor-list replication
    # ------------------------------------------------------------------
    # SOS beacons keep state in the DHT (the target -> servlet binding);
    # Chord replicates each key on the owner and its next live successors
    # so the binding survives up to ``replicas - 1`` holder failures.

    DEFAULT_REPLICAS = 3

    def _replica_nodes(self, key: int, replicas: int) -> List[int]:
        """The owner of ``key`` plus its next ``replicas - 1`` live
        successors (ring order, distinct)."""
        owner = self._ideal_successor(key)
        nodes = [owner]
        index = bisect_right(self._alive_sorted, owner) % max(
            1, len(self._alive_sorted)
        )
        while len(nodes) < min(replicas, len(self._alive_sorted)):
            candidate = self._alive_sorted[index % len(self._alive_sorted)]
            index += 1
            if candidate not in nodes:
                nodes.append(candidate)
        return nodes

    def put(
        self, key: int, value: object, replicas: int = DEFAULT_REPLICAS
    ) -> List[int]:
        """Store ``value`` under ``key`` on the owner and its replicas.

        Returns the node identifiers holding a copy.
        """
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        key = self.space.validate(key)
        holders = self._replica_nodes(key, replicas)
        for node_id in holders:
            self._kv.setdefault(node_id, {})[key] = value
        return holders

    def put_key(
        self, key_string: str, value: object, replicas: int = DEFAULT_REPLICAS
    ) -> List[int]:
        """Hash ``key_string`` and store under the resulting identifier."""
        return self.put(self.space.hash_key(key_string), value, replicas)

    def get(self, key: int, start: Optional[int] = None) -> object:
        """Retrieve the value for ``key``, surviving owner failures.

        Routes to the owner via :meth:`lookup`; when the owner has no copy
        (e.g. it took over the range after a crash), its successor list is
        consulted for a surviving replica. Raises :class:`RoutingError`
        when no copy is found.
        """
        key = self.space.validate(key)
        if start is None:
            start = self._alive_sorted[0]
        result = self.lookup(key, start)
        if not result.succeeded or result.owner is None:
            raise RoutingError(f"lookup for key {key} failed")
        owner_store = self._kv.get(result.owner, {})
        if key in owner_store:
            return owner_store[key]
        for candidate in self._node_view(result.owner).successor_list:
            if candidate in self and key in self._kv.get(candidate, {}):
                return self._kv[candidate][key]
        # Last resort: any live replica (models a directory-wide search).
        for node_id in self._alive_sorted:
            if key in self._kv.get(node_id, {}):
                return self._kv[node_id][key]
        raise RoutingError(f"no surviving replica for key {key}")

    def get_key(self, key_string: str, start: Optional[int] = None) -> object:
        """Hash ``key_string`` and retrieve the stored value."""
        return self.get(self.space.hash_key(key_string), start)
