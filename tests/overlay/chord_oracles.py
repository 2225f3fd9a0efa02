"""Per-node references for the columnar Chord code paths.

``rebuild_routing_state_scalar`` is the bisect-per-finger rebuild that
:meth:`ChordRing.rebuild_routing_state` must match entry for entry.
``stabilize_round_from_snapshot`` is one stabilize round whose
``fix_fingers`` lookups all read the ring as it stood after the round's
stabilize pass, in one :meth:`ChordRing.lookup_batch` call; equality
with :meth:`ChordRing.stabilize` is the premise a columnar stabilization
rests on.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.chord import ChordRing


def rebuild_routing_state_scalar(ring: ChordRing) -> None:
    """Exact fingers, successor lists and predecessors, node by node."""
    ring._invalidate_batch_cache()
    for node_id in ring.live_node_ids:
        node = ring.node(node_id)
        node.fingers = [
            ring._ideal_successor(ring.space.finger_start(node_id, i))
            for i in range(ring.space.bits)
        ]
        node.successor_list = ring._ideal_successor_list(node_id)
        node.predecessor = ring._ideal_predecessor(node_id)


def stabilize_round_from_snapshot(ring: ChordRing) -> None:
    """One :meth:`ChordRing.stabilize` round with snapshot finger reads.

    The stabilize/notify pass runs node by node as usual. Then every live
    node's finger lookups run at once, against the state that pass left,
    and each node takes its fingers and refreshes its successor list in
    ring order, as the sequential round does.
    """
    ring._invalidate_batch_cache()
    live = ring.live_node_ids
    for node_id in live:
        ring._stabilize_node(ring.node(node_id))
    bits = ring.space.bits
    starts = np.repeat(np.asarray(live, dtype=np.int64), bits)
    powers = np.tile(np.int64(1) << np.arange(bits, dtype=np.int64), len(live))
    batch = ring.lookup_batch((starts + powers) % ring.space.size, starts)
    owners = batch.owners.reshape(len(live), bits).tolist()
    found = batch.succeeded.reshape(len(live), bits).tolist()
    for node_id, row_owners, row_found in zip(live, owners, found):
        node = ring.node(node_id)
        node.fingers = [
            owner if ok else node.successor
            for owner, ok in zip(row_owners, row_found)
        ]
        ring._refresh_successor_list(node)


def routing_state(ring: ChordRing, node_id: int):
    """One node's fingers, successor list and predecessor."""
    node = ring.node(node_id)
    return node.fingers, node.successor_list, node.predecessor
