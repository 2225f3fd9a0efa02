"""``choice_rows`` against per-row ``Generator.choice``.

:func:`repro.perf.compiled.choice_rows` replays numpy's without-replacement
``choice`` in C over the generator's own bit generator. Every case here
draws on twin generators — one through ``choice_rows``, one through the
per-row ``choice`` oracle below — and requires the same matrix *and* the
same generator state afterwards (the next uint32 and double draws), on
all five numpy bit generators, after an odd or even number of leading
uint32 draws (which leaves a buffered 32-bit half or not).
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import _cc, compiled
from repro.perf.compiled import (
    ChoiceReplayDisabledWarning,
    choice_rows,
    choice_sampler,
    compiled_backend,
)

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)

needs_cc = pytest.mark.skipif(
    compiled_backend() is None, reason="no C compiler: no replay to test"
)


def _oracle(generator, population, k, rows):
    """The per-row draws ``choice_rows`` must reproduce."""
    matrix = np.empty((rows, k), dtype=np.int64)
    for index in range(rows):
        matrix[index] = generator.choice(population, size=k, replace=False)
    return matrix


def _twins(bit_generator, seed, leading):
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for generator in pair:
        generator.integers(0, 2**32, size=leading, dtype=np.uint32)
    return pair


def _assert_replays(bit_generator, seed, leading, population, k, rows):
    ours, theirs = _twins(bit_generator, seed, leading)
    got = choice_rows(ours, population, k, rows)
    want = _oracle(theirs, population, k, rows)
    assert got.dtype == np.int64 and got.shape == (rows, k)
    np.testing.assert_array_equal(got, want)
    # Same state afterwards: the uint32 draws read the buffered half.
    np.testing.assert_array_equal(
        ours.integers(0, 2**32, size=3, dtype=np.uint32),
        theirs.integers(0, 2**32, size=3, dtype=np.uint32),
    )
    assert ours.random() == theirs.random()


@st.composite
def _floyd_shapes(draw):
    """``(population, k)`` on numpy's Floyd path: population <= 10000."""
    population = draw(st.one_of(st.integers(0, 40), st.integers(0, 9000)))
    k = draw(
        st.one_of(st.integers(0, min(population, 8)), st.integers(0, population))
    )
    return population, k


@settings(max_examples=300)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    leading=st.integers(0, 5),
    shape=_floyd_shapes(),
    rows=st.integers(0, 8),
)
def test_matches_per_row_choice(bit_generator, seed, leading, shape, rows):
    population, k = shape
    _assert_replays(bit_generator, seed, leading, population, k, rows)


@st.composite
def _large_shapes(draw):
    """``(population, k)`` above 10000: Floyd while ``k <= population //
    50``, numpy's tail shuffle (and the fallback loop) above it."""
    population = draw(st.integers(10001, 60000))
    cutoff = population // 50
    k = draw(
        st.one_of(
            st.integers(0, cutoff),
            st.integers(cutoff + 1, min(population, cutoff + 400)),
        )
    )
    return population, k


@settings(max_examples=60)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    leading=st.integers(0, 3),
    shape=_large_shapes(),
    rows=st.integers(0, 3),
)
def test_large_populations_match_including_tail_shuffle(
    bit_generator, seed, leading, shape, rows
):
    population, k = shape
    _assert_replays(bit_generator, seed, leading, population, k, rows)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_lemire_rejections_match(bit_generator):
    # Floyd's ranges [0, j] with j just above 2**28 reject about 6% of
    # 32-bit draws: the rejection loop runs several times over 8 rows.
    _assert_replays(bit_generator, 7, 1, 2**28 + 20, 16, 8)


@pytest.mark.parametrize(
    "population, k, rows",
    [(5, 6, 1), (-1, 0, 1), (5, -1, 1), (2.5, 1, 1), ("5", 1, 1), (5, 1.0, 2)],
)
def test_invalid_arguments_raise_numpys_errors(population, k, rows):
    ours, theirs = _twins(np.random.PCG64, 3, 0)
    with pytest.raises(Exception) as expected:
        _oracle(theirs, population, k, rows)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        choice_rows(ours, population, k, rows)


def test_legacy_random_state_takes_the_loop():
    ours, theirs = np.random.RandomState(11), np.random.RandomState(11)
    np.testing.assert_array_equal(
        choice_rows(ours, 50, 7, 4), _oracle(theirs, 50, 7, 4)
    )


def test_without_the_library_the_loop_gives_the_same_matrices(monkeypatch):
    monkeypatch.setattr(_cc, "load_library", lambda: None)
    assert choice_sampler() == "numpy"
    for bit_generator in BIT_GENERATORS:
        _assert_replays(bit_generator, 5, 1, 300, 12, 6)


@needs_cc
def test_self_check_keeps_the_replay_engaged(monkeypatch):
    # The CI tripwire: a numpy release whose ``choice`` no longer matches
    # the replay disengages it, and this test turns red.
    monkeypatch.setattr(compiled, "_REPLAY_OK", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ChoiceReplayDisabledWarning)
        assert choice_sampler() == "cc", (
            f"numpy {np.__version__} changed Generator.choice: the C replay "
            "is disabled and choice_rows runs the per-row loop"
        )


@needs_cc
def test_self_check_mismatch_falls_back_with_one_warning(monkeypatch):
    replay = compiled._replay

    def reversed_rows(library, generator, population, k, rows):
        return replay(library, generator, population, k, rows)[:, ::-1]

    monkeypatch.setattr(compiled, "_REPLAY_OK", None)
    monkeypatch.setattr(compiled, "_replay", reversed_rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for seed in range(3):
            _assert_replays(np.random.PCG64, seed, 1, 100, 9, 4)
        assert choice_sampler() == "numpy"
    assert [type(w.message) for w in caught] == [ChoiceReplayDisabledWarning]
