"""The overlay's identifier draw against the ``np.unique`` reference.

:meth:`OverlayNetwork._draw_unique_identifiers` must return exactly the
ids of :func:`tests.overlay.id_draw_oracle.draw_unique_identifiers` and
leave the generator where the reference leaves it: every seeded
deployment, trial digest and golden report downstream draws from the
same stream after it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.overlay.network import OverlayNetwork
from tests.overlay.id_draw_oracle import draw_unique_identifiers


def _draw_both(seed, bits, count):
    """``(ids, next draw)`` of the network and of the reference, and the
    number of blocks the reference drew."""
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    network = OverlayNetwork(count, bits=bits, rng=ours)
    expected, blocks = draw_unique_identifiers(theirs, 2**bits, count)
    got = (network.store.ids, int(ours.integers(0, 2**62)))
    want = (expected, int(theirs.integers(0, 2**62)))
    return got, want, blocks


def _assert_same(got, want):
    assert got[0].dtype == np.int64
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]


@st.composite
def _rings(draw):
    """``(bits, count)``: rings from 2 to 2**32 slots, counts on both
    sides of the dense cut at ``size // 2``, and crowded small rings."""
    bits = draw(st.integers(1, 32))
    size = 2**bits
    cap = min(size, 4096)
    counts = [st.integers(1, cap)]
    if bits <= 5:
        counts.append(st.just(size // 2))  # now and then two blocks
    if size <= 2 * cap:
        half = size // 2
        counts.append(st.integers(max(1, half - 3), min(size, half + 3)))
        counts.append(st.integers(max(1, half // 2), max(1, half)))
    return bits, draw(st.one_of(counts))


@settings(max_examples=300, deadline=None)
@given(ring=_rings(), seed=st.integers(0, 2**32 - 1))
def test_draw_matches_unique_reference(ring, seed):
    bits, count = ring
    got, want, blocks = _draw_both(seed, bits, count)
    event("dense" if blocks == 0 else "blocks=1" if blocks == 1 else "blocks>1")
    _assert_same(got, want)


#: ``(bits, seed)`` whose draw of ``size // 2`` ids on a ``2**bits`` ring
#: needs more than one block: ``size`` draws from ``size`` slots give
#: ``0.63 size`` distinct values on average, so only small rings come up
#: short, and only for a few seeds (found by scanning seeds 0-1999).
SEVERAL_BLOCKS = [(2, 13), (2, 197), (3, 36), (3, 351), (4, 36), (4, 584), (5, 120)]


@pytest.mark.parametrize("bits, seed", SEVERAL_BLOCKS)
def test_crowded_rings_that_need_several_blocks(bits, seed):
    got, want, blocks = _draw_both(seed, bits, 2**bits // 2)
    assert blocks > 1
    _assert_same(got, want)


def test_dense_path_is_the_permutation_head():
    got, want, blocks = _draw_both(3, 4, 9)
    assert blocks == 0
    _assert_same(got, want)
    assert sorted(got[0].tolist()) != got[0].tolist()  # not sorted there


#: sha256 of the little-endian int64 ids of ``OverlayNetwork(10**6,
#: rng=default_rng(seed))`` and the generator's next ``integers(0,
#: 2**62)``, recorded with the ``np.unique`` draw.
MILLION_NODE_PINS = {
    5: ("4be59363e86b6edced3424427e899b354627af14b8e56478ff2fe138d85fdda2",
        184688081182022799),
    2004: ("90beb3a5595661035f48226fd1b6a9b10b10c97a15fe804d5dbfa1adcdf38234",
           2268704863763849359),
}


@pytest.mark.parametrize("seed", sorted(MILLION_NODE_PINS))
def test_million_node_ids_are_pinned(seed):
    rng = np.random.default_rng(seed)
    network = OverlayNetwork(10**6, rng=rng)
    digest = hashlib.sha256(network.store.ids.astype("<i8").tobytes()).hexdigest()
    assert (digest, int(rng.integers(0, 2**62))) == MILLION_NODE_PINS[seed]
