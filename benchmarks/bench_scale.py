"""Struct-of-arrays scale path: the ISSUE 8 criteria.

Three measurements on a 10^5-node overlay (3 layers, one-to-half, 3000
SOS nodes): the column-borrowing ``encode_deployment`` vs the original
object-walking encoder it replaced (the speedup criterion — the array
path is a vectorized gather plus an epoch-keyed structure cache, the
object path resolves every node view), one flooded fast-engine run over
the encoding, and a 10k-key batched Chord lookup through the
deployment's own ring. Peak RSS rides along in ``extra_info`` via the
benchmark conftest, so the BENCH_<n>.json trajectory records that the
million-node representation stays columnar (no object blow-up).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import SOSArchitecture
from repro.perf.fastsim import encode_deployment, run_fast
from repro.simulation.packet_sim import PacketSimConfig, flood_layer
from repro.sos.deployment import SOSDeployment
from tests.perf.oracles import _encode_deployment_objects

NODES = 100_000
ARCH = SOSArchitecture(
    layers=3,
    mapping="one-to-half",
    total_overlay_nodes=NODES,
    sos_nodes=3_000,
)
CONFIG = PacketSimConfig(
    clients=200,
    duration=6.0,
    warmup=1.0,
    flood_start=2.0,
    client_rate=5.0,
    flood_rate=200.0,
)
SEED = 20040326
LOOKUPS = 10_000


def _deployment():
    return SOSDeployment.deploy(ARCH, rng=SEED)


def _encode_cold(deployment):
    # Drop the epoch-keyed cache so every round pays the full gather —
    # the honest comparison against the object walk.
    deployment._fastsim_structure = None
    return encode_deployment(deployment)


def test_encode_100k_arrays(benchmark):
    deployment = _deployment()
    arrays = benchmark.pedantic(
        _encode_cold, args=(deployment,), rounds=3, iterations=1
    )
    assert len(arrays.node_ids) == 3_000 + ARCH.filters


def test_encode_100k_objects(benchmark):
    deployment = _deployment()
    arrays = benchmark.pedantic(
        _encode_deployment_objects, args=(deployment,), rounds=3, iterations=1
    )
    assert len(arrays.node_ids) == 3_000 + ARCH.filters


def _encode_sweep(deployment, encoder, rounds=8):
    """Re-encode between health mutations, as replica sweeps and the
    detect→repair loop do. Health writes leave the wiring epoch alone,
    so the array path re-gathers only ``is_bad`` after round one; the
    object path rebuilds everything every time."""
    members = deployment.sos_member_ids()
    results = []
    for index in range(rounds):
        node = deployment.resolve(members[index % len(members)])
        (node.congest if index % 2 else node.recover)()
        results.append(encoder(deployment))
    return results


def test_encode_sweep_speedup():
    deployment = _deployment()
    deployment._fastsim_structure = None
    start = time.perf_counter()
    fast_sweep = _encode_sweep(deployment, encode_deployment)
    array_seconds = time.perf_counter() - start

    start = time.perf_counter()
    object_sweep = _encode_sweep(deployment, _encode_deployment_objects)
    object_seconds = time.perf_counter() - start

    # Same encodings either way — the array path is a pure optimization.
    # (The object sweep continues the same health churn sequence, so
    # compare structure plus the final health snapshot, not every round.)
    assert np.array_equal(
        fast_sweep[-1].node_ids, object_sweep[-1].node_ids
    )
    for layer in fast_sweep[-1].neighbors:
        assert np.array_equal(
            fast_sweep[-1].neighbors[layer],
            object_sweep[-1].neighbors[layer],
        )
    speedup = object_seconds / array_seconds
    assert speedup >= 3.0, (
        f"array encode sweep speedup {speedup:.1f}x below the 3x "
        f"criterion (objects {object_seconds:.3f}s, arrays "
        f"{array_seconds:.3f}s)"
    )


def _flooded_run(deployment):
    from repro.utils.seeding import make_rng

    rng = make_rng(SEED)
    targets = flood_layer(deployment, 1, 0.25, rng=rng)
    return run_fast(deployment, CONFIG, rng=rng, flood_targets=targets)


def test_flooded_fastsim_100k(benchmark):
    deployment = _deployment()
    report = benchmark.pedantic(
        _flooded_run, args=(deployment,), rounds=1, iterations=1
    )
    assert report.sent > 0
    assert 0.0 < report.delivery_ratio < 1.0


def test_chord_10k_batch_100k_ring(benchmark):
    deployment = _deployment()
    ring = deployment.chord
    rng = np.random.default_rng(SEED)
    live = np.asarray(ring.live_node_ids, dtype=np.int64)
    keys = rng.integers(0, ring.space.size, size=LOOKUPS)
    starts = live[rng.integers(0, len(live), size=LOOKUPS)]
    batch = benchmark.pedantic(
        ring.lookup_batch, args=(keys, starts), rounds=1, iterations=1
    )
    assert bool(batch.succeeded.all())
