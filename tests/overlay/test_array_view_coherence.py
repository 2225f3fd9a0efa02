"""Object views vs struct-of-arrays columns: one state, two faces.

Since the struct-of-arrays refactor every :class:`OverlayNode` is a thin
view over :class:`~repro.overlay.arrays.OverlayStore` columns, and the
fast-path encoder borrows those columns directly. These are the property
tests guarding that contract: random mutation storms driven through the
*object* API must be visible — exactly — through the columns, counters,
and the array encoder, and column-side bulk writes must be visible
through the object views. The encoder itself is pinned bit-identical to
the original object-walking oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSArchitecture
from repro.overlay.arrays import (
    HEALTH_COMPROMISED,
    HEALTH_CRASHED,
    HEALTH_GOOD,
    OverlayStore,
)
from repro.overlay.node import NodeHealth
from repro.perf.fastsim import SlotIndex, encode_deployment
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import make_rng
from tests.perf.oracles import _encode_deployment_objects


def deployment(seed=17, nodes=300, sos=40):
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=nodes,
        sos_nodes=sos,
        filters=4,
    )
    return SOSDeployment.deploy(arch, rng=seed)


def brute_force_counts(dep):
    """Recount bad nodes per layer by walking every node object."""
    layers = dep.architecture.layers + 1
    bad = {layer: 0 for layer in range(1, layers + 1)}
    for layer in range(1, layers + 1):
        for node_id in dep.layer_members(layer):
            bad[layer] += int(dep.resolve(node_id).is_bad)
    return bad


class TestMutationStormCoherence:
    """Random object-API churn never desynchronizes columns or counters."""

    MUTATIONS = ("compromise", "congest", "crash", "restore", "recover")

    @pytest.mark.parametrize("seed", range(5))
    def test_object_writes_visible_in_columns(self, seed):
        dep = deployment(seed=seed)
        rng = make_rng(1000 + seed)
        members = dep.sos_member_ids()
        for round_index in range(20):
            for node_id in rng.choice(members, size=12, replace=False):
                node = dep.resolve(int(node_id))
                action = self.MUTATIONS[int(rng.integers(len(self.MUTATIONS)))]
                getattr(node, action)()
            # Column truth equals object truth, node by node.
            for node_id in members:
                node = dep.resolve(node_id)
                store = node._store
                assert store.get_health(node._row) == int(
                    store.health[node._row]
                )
                assert node.is_bad == (
                    int(store.health[node._row]) != HEALTH_GOOD
                )
            # Incremental counters equal the brute-force recount.
            assert dep.bad_counts() == brute_force_counts(dep)

    def test_column_writes_visible_in_objects(self):
        dep = deployment()
        store = dep.network.store
        victims = dep.member_array(1)[:5]
        store.set_health_many(store.rows_of(victims), HEALTH_CRASHED)
        for node_id in victims:
            node = dep.resolve(int(node_id))
            assert node.health is NodeHealth.CRASHED
        assert dep.bad_counts()[1] == 5
        # And back: restore through the object API drains the counter.
        for node_id in victims:
            assert dep.resolve(int(node_id)).restore()
        assert dep.bad_counts()[1] == 0

    def test_counter_recompute_is_idempotent(self):
        dep = deployment()
        store = dep.network.store
        dep.resolve(dep.sos_member_ids()[0]).compromise()
        before = store._bad_per_layer.copy()
        store.recompute_counters()
        assert np.array_equal(store._bad_per_layer, before)


class TestNeighborTableCoherence:
    """Compact neighbor storage behaves like the per-node tuples."""

    def test_object_and_matrix_reads_agree(self):
        dep = deployment()
        store = dep.network.store
        for layer in range(1, dep.architecture.layers):
            rows = dep.member_rows(layer)
            lens = store.neighbor_len[rows]
            width = int(lens.max(initial=0))
            matrix = store.neighbor_matrix(rows, width)
            for position, node_id in enumerate(dep.member_array(layer)):
                node = dep.resolve(int(node_id))
                row = matrix[position]
                assert tuple(row[row >= 0].tolist()) == node.neighbors

    def test_rows_without_tables_hit_the_sentinel(self):
        store = OverlayStore([5, 6, 7])
        store.set_neighbors(1, (6, 7))
        matrix = store.neighbor_matrix(np.asarray([0, 1, 2]), 2)
        assert matrix.tolist() == [[-1, -1], [6, 7], [-1, -1]]
        assert store.neighbors_of(0) == ()
        assert store.neighbors_of(1) == (6, 7)

    def test_rewrite_shrinks_and_pads(self):
        store = OverlayStore([1, 2])
        store.set_neighbors(0, (9, 8, 7))
        store.set_neighbors(0, (4,))
        assert store.neighbors_of(0) == (4,)
        assert store.neighbor_matrix(np.asarray([0]), 3).tolist() == [
            [4, -1, -1]
        ]

    def test_width_beyond_storage_raises(self):
        from repro.errors import ConfigurationError

        store = OverlayStore([1])
        store.set_neighbors(0, (2,))
        with pytest.raises(ConfigurationError):
            store.neighbor_matrix(np.asarray([0]), 9)

    def test_reset_roles_releases_tables(self):
        store = OverlayStore(list(range(10)))
        for row in range(10):
            store.set_neighbors(row, (row + 1,))
        store.reset_roles()
        assert all(store.neighbors_of(row) == () for row in range(10))
        # Released compact rows are reused, not leaked: re-wiring the
        # same population must not grow the table.
        capacity = store._nbr_table.shape[0]
        for row in range(10):
            store.set_neighbors(row, (row + 2,))
        assert store._nbr_table.shape[0] == capacity

    def test_epoch_bumps_invalidate_cached_structure(self):
        dep = deployment()
        first = encode_deployment(dep)
        assert encode_deployment(dep).node_ids is first.node_ids
        node = dep.resolve(dep.layer_members(1)[0])
        node.set_neighbors(node.neighbors)
        assert encode_deployment(dep).node_ids is not first.node_ids


class TestEncoderBitIdentity:
    """Column-borrowing encoder == original object-walking oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_encodings_identical(self, seed):
        dep = deployment(seed=seed)
        # Mixed damage so is_bad is non-trivial.
        rng = make_rng(seed)
        for node_id in rng.choice(dep.sos_member_ids(), size=10, replace=False):
            node = dep.resolve(int(node_id))
            (node.compromise if rng.random() < 0.5 else node.congest)()
        fast = encode_deployment(dep)
        oracle = _encode_deployment_objects(dep)
        assert fast.layers == oracle.layers
        assert np.array_equal(fast.node_ids, oracle.node_ids)
        assert np.array_equal(fast.layer_of, oracle.layer_of)
        assert np.array_equal(fast.local_of, oracle.local_of)
        assert np.array_equal(fast.is_bad, oracle.is_bad)
        assert set(fast.members) == set(oracle.members)
        for layer in fast.members:
            assert np.array_equal(fast.members[layer], oracle.members[layer])
        assert set(fast.neighbors) == set(oracle.neighbors)
        for layer in fast.neighbors:
            assert np.array_equal(
                fast.neighbors[layer], oracle.neighbors[layer]
            )
        for node_id in fast.node_ids[:25]:
            assert fast.slot_of[int(node_id)] == oracle.slot_of[int(node_id)]


class TestSlotIndex:
    def test_dict_like_reads(self):
        index = SlotIndex(np.asarray([30, 10, 20], dtype=np.int64))
        assert 10 in index and 30 in index
        assert 11 not in index
        assert index[30] == 0 and index[10] == 1 and index[20] == 2
        with pytest.raises(KeyError):
            index[99]

    def test_vectorized_lookup_matches_scalar(self):
        ids = np.asarray([7, 3, 11, 5], dtype=np.int64)
        index = SlotIndex(ids)
        wanted = np.asarray([[5, 3], [7, 11]], dtype=np.int64)
        slots = index.lookup(wanted)
        assert slots.shape == wanted.shape
        for row in range(2):
            for col in range(2):
                assert slots[row, col] == index[int(wanted[row, col])]
        with pytest.raises(KeyError):
            index.lookup(np.asarray([3, 4], dtype=np.int64))
