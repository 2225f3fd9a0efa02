"""Batched Chord lookups vs looped ``lookup``.

10k key resolutions on a 2000-node, 24-bit ring must be >= 20x faster
through ``lookup_batch`` than through a per-key ``lookup`` loop. The
batch path includes building its epoch-keyed routing cache (a freshly
built ring pre-primes it from the vectorized rebuild's own matrices),
so the measured factor is end to end, not warm-cache-only.

The churned row fails 200 of the ring's nodes first, so the batch pays
a cold cache: the columns, stale pointers to dead nodes included, are
encoded before the first hop. It must be >= 15x faster than the loop.
"""

from __future__ import annotations

import time

import numpy as np

from repro.overlay.chord import ChordRing

BITS = 24
NODES = 2000
QUERIES = 10_000
SEED = 11
FAILED = 200


def _ring() -> ChordRing:
    rng = np.random.default_rng(SEED)
    ids = sorted(
        int(i) for i in rng.choice(2**BITS, size=NODES, replace=False)
    )
    return ChordRing.build(ids, bits=BITS)


def _churned_ring() -> ChordRing:
    ring = _ring()
    rng = np.random.default_rng(SEED + 2)
    for node_id in rng.choice(ring.live_node_ids, size=FAILED, replace=False):
        ring.fail(int(node_id))
    return ring


def _queries(ring: ChordRing):
    rng = np.random.default_rng(SEED + 1)
    keys = [int(k) for k in rng.integers(0, 2**BITS, size=QUERIES)]
    starts = [int(s) for s in rng.choice(ring.live_node_ids, size=QUERIES)]
    return keys, starts


def _run_loop(ring, keys, starts):
    return [
        ring.lookup(key, start=start) for key, start in zip(keys, starts)
    ]


def test_chord_10k_lookup_loop(benchmark):
    ring = _ring()
    keys, starts = _queries(ring)
    results = benchmark.pedantic(
        _run_loop, args=(ring, keys, starts), rounds=1, iterations=1
    )
    assert all(r.succeeded for r in results)


def test_chord_10k_lookup_batch(benchmark):
    ring = _ring()
    keys, starts = _queries(ring)
    batch = benchmark.pedantic(
        ring.lookup_batch, args=(keys, starts), rounds=1, iterations=1
    )
    assert bool(batch.succeeded.all())


def test_chord_10k_lookup_batch_churned(benchmark):
    ring = _churned_ring()
    keys, starts = _queries(ring)
    batch = benchmark.pedantic(
        ring.lookup_batch, args=(keys, starts), rounds=1, iterations=1
    )
    assert bool(batch.succeeded.all())


def _speedup(ring: ChordRing):
    """Loop-over-batch time ratio, after checking exact agreement."""
    keys, starts = _queries(ring)

    start = time.perf_counter()
    batch = ring.lookup_batch(keys, starts)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    looped = _run_loop(ring, keys, starts)
    loop_seconds = time.perf_counter() - start

    # Exact agreement with the oracle on every query.
    assert [int(o) for o in batch.owners] == [r.owner for r in looped]
    assert [int(h) for h in batch.hops] == [r.hops for r in looped]
    return loop_seconds / batch_seconds, loop_seconds, batch_seconds


def test_batch_speedup_at_least_20x():
    speedup, loop_seconds, batch_seconds = _speedup(_ring())
    assert speedup >= 20.0, (
        f"lookup_batch speedup {speedup:.1f}x below the 20x criterion "
        f"(loop {loop_seconds:.2f}s, batch {batch_seconds:.2f}s)"
    )


def test_churned_batch_speedup_at_least_15x():
    ring = _churned_ring()
    assert len(ring) == NODES - FAILED
    speedup, loop_seconds, batch_seconds = _speedup(ring)
    assert speedup >= 15.0, (
        f"churned-ring lookup_batch speedup {speedup:.1f}x below the 15x "
        f"criterion (loop {loop_seconds:.2f}s, batch {batch_seconds:.2f}s)"
    )
