"""Bulk store writes equal their per-node replay.

``set_health_many``, ``set_layer_many`` and ``set_neighbors_many`` replace
node-by-node loops on the Monte Carlo trial path. Each must leave the
columns, the incremental per-layer ``bad``/``crashed`` counters, the
cached ``neighbors_of`` tuples and every ``wiring_epoch`` consumer exactly
where the per-node calls would.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SOSArchitecture
from repro.overlay.arrays import OverlayStore
from repro.perf.fastsim import _encode_structure
from repro.sos.deployment import SOSDeployment

LAYER_CODES = st.integers(0, 4)
HEALTH_CODES = st.integers(0, 3)
NODE_IDS = st.integers(0, 10**6)


def _prime(data, size: int):
    """Two identical stores after a random per-node history."""
    ids = data.draw(st.lists(NODE_IDS, min_size=size, max_size=size, unique=True))
    stores = OverlayStore(ids), OverlayStore(ids)
    history = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(("layer", "health", "neighbors")),
                st.integers(0, size - 1),
                st.integers(0, 4),
                st.lists(NODE_IDS, max_size=4).map(tuple),
            ),
            max_size=40,
        )
    )
    for store in stores:
        for op, row, code, neighbors in history:
            if op == "layer":
                store.set_layer(row, code)
            elif op == "health":
                store.set_health(row, code % 4)
            else:
                store.set_neighbors(row, neighbors)
        # Populate the neighbor-tuple cache the bulk writes must drop.
        for row in range(size):
            store.neighbors_of(row)
    return stores


def _rows(data, size: int) -> np.ndarray:
    rows = data.draw(
        st.lists(st.integers(0, size - 1), max_size=size, unique=True)
    )
    return np.asarray(rows, dtype=np.int64)


def _assert_same(bulk: OverlayStore, replay: OverlayStore) -> None:
    assert bulk.health.tolist() == replay.health.tolist()
    assert bulk.layer.tolist() == replay.layer.tolist()
    assert bulk.neighbor_len.tolist() == replay.neighbor_len.tolist()
    top = int(max(bulk.layer.max(), replay.layer.max())) + 2
    for layer in range(top):
        assert bulk.bad_count(layer) == replay.bad_count(layer)
    rows = np.arange(len(bulk))
    assert [bulk.neighbors_of(row) for row in rows.tolist()] == [
        replay.neighbors_of(row) for row in rows.tolist()
    ]
    width = int(bulk.neighbor_len.max(initial=0))
    assert np.array_equal(
        bulk.neighbor_matrix(rows, width), replay.neighbor_matrix(rows, width)
    )
    # The incremental counters agree with a rebuild from the columns.
    counted = [bulk.bad_count(layer) for layer in range(top)]
    bulk.recompute_counters()
    assert counted == [bulk.bad_count(layer) for layer in range(top)]


@given(data=st.data(), size=st.integers(1, 24), code=HEALTH_CODES)
def test_set_health_many_equals_replay(data, size, code):
    bulk, replay = _prime(data, size)
    rows = _rows(data, size)
    bulk.set_health_many(rows, code)
    for row in rows.tolist():
        replay.set_health(row, code)
    _assert_same(bulk, replay)


@given(data=st.data(), size=st.integers(1, 24))
def test_set_layer_many_equals_replay(data, size):
    bulk, replay = _prime(data, size)
    rows = _rows(data, size)
    layers = np.asarray(
        data.draw(st.lists(LAYER_CODES, min_size=len(rows), max_size=len(rows))),
        dtype=np.int64,
    )
    epoch = bulk.wiring_epoch
    bulk.set_layer_many(rows, layers)
    for row, layer in zip(rows.tolist(), layers.tolist()):
        replay.set_layer(row, layer)
    _assert_same(bulk, replay)
    assert bulk.wiring_epoch > epoch or len(rows) == 0


@given(data=st.data(), size=st.integers(1, 24), width=st.integers(0, 5))
def test_set_neighbors_many_equals_replay(data, size, width):
    bulk, replay = _prime(data, size)
    rows = _rows(data, size)
    matrix = np.asarray(
        data.draw(
            st.lists(
                st.lists(NODE_IDS, min_size=width, max_size=width),
                min_size=len(rows),
                max_size=len(rows),
            )
        ),
        dtype=np.int64,
    ).reshape(len(rows), width)
    epoch = bulk.wiring_epoch
    bulk.set_neighbors_many(rows, matrix)
    for row, neighbors in zip(rows.tolist(), matrix.tolist()):
        replay.set_neighbors(row, neighbors)
    _assert_same(bulk, replay)
    assert bulk.wiring_epoch > epoch


# ----------------------------------------------------------------------
# Deployment wiring: the per-node formulation as a reference oracle
# ----------------------------------------------------------------------


def _replay_wiring(deployment: SOSDeployment, generator) -> None:
    """Node-by-node neighbor wiring: one ``choice`` and one view write
    per member, in sorted member order."""
    arch = deployment.architecture
    for layer in range(1, arch.layers + 1):
        candidates = deployment.layer_members(layer + 1)
        degree = min(arch.mapping_degree(layer + 1), len(candidates))
        for node_id in deployment.layer_members(layer):
            chosen = generator.choice(len(candidates), size=degree, replace=False)
            deployment.network.get(node_id).set_neighbors(
                tuple(candidates[int(i)] for i in chosen)
            )
            if layer + 1 == arch.layers + 1:
                for _ in chosen:
                    deployment.filters.allow_servlet(node_id)


def _replay_reassign(deployment: SOSDeployment, chosen, generator) -> None:
    """Node-by-node ``reassign_membership``: one layer write per node."""
    deployment.network.reset_roles()
    deployment.network.reset_health()
    membership = {}
    cursor = 0
    for layer, size in enumerate(deployment.architecture.integer_layer_sizes, 1):
        members = list(chosen[cursor : cursor + size])
        cursor += size
        for node_id in members:
            deployment.network.get(node_id).sos_layer = layer
        membership[layer] = sorted(members)
    membership[deployment.architecture.layers + 1] = deployment.filters.filter_ids
    deployment._layer_membership = membership
    deployment._invalidate_member_caches()
    _replay_wiring(deployment, generator)


def _assert_same_structure(left: dict, right: dict) -> None:
    assert left["layers"] == right["layers"]
    for key in ("node_ids", "layer_of", "local_of"):
        assert np.array_equal(left[key], right[key])
    for key in ("members", "neighbors"):
        assert sorted(left[key]) == sorted(right[key])
        for layer in left[key]:
            assert np.array_equal(left[key][layer], right[key][layer])


ARCHS = st.builds(
    lambda layers, mapping: SOSArchitecture(
        layers=layers, mapping=mapping, total_overlay_nodes=150,
        sos_nodes=24, filters=4,
    ),
    st.integers(2, 4),
    st.sampled_from(("one-to-one", "one-to-two", "one-to-half", "one-to-all")),
)


@given(arch=ARCHS, seed=st.integers(0, 2**16))
def test_wiring_and_structure_cache_equal_replay(arch, seed):
    bulk = SOSDeployment.deploy(arch, rng=seed)
    replay = SOSDeployment.deploy(arch, rng=seed)
    # Prime the epoch-keyed structure caches, then rewire both: the bulk
    # write must invalidate the cache just as the per-node writes do.
    stale = _encode_structure(bulk)
    _assert_same_structure(stale, _encode_structure(replay))
    bulk._wire_neighbor_tables(np.random.default_rng(seed + 1))
    _replay_wiring(replay, np.random.default_rng(seed + 1))
    fresh = _encode_structure(bulk)
    assert fresh is not stale
    _assert_same_structure(fresh, _encode_structure(replay))
    _assert_same(bulk.network.store, replay.network.store)
    servlets = bulk.layer_members(arch.layers)
    assert [bulk.filters.admits(s) for s in servlets] == [
        replay.filters.admits(s) for s in servlets
    ]


@given(arch=ARCHS, seed=st.integers(0, 2**16))
def test_reassign_membership_equals_replay(arch, seed):
    bulk = SOSDeployment.deploy(arch, rng=seed)
    replay = SOSDeployment.deploy(arch, rng=seed)
    picker = np.random.default_rng(seed)
    chosen = picker.choice(
        bulk.network.store.sorted_ids, size=arch.sos_nodes, replace=False
    ).tolist()
    bulk.reassign_membership(chosen, np.random.default_rng(seed + 2))
    _replay_reassign(replay, chosen, np.random.default_rng(seed + 2))
    for layer in range(1, arch.layers + 2):
        assert bulk.layer_members(layer) == replay.layer_members(layer)
    _assert_same(bulk.network.store, replay.network.store)
    _assert_same_structure(_encode_structure(bulk), _encode_structure(replay))
