"""Tests for deterministic RNG management."""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import SeedSequenceFactory, make_rng


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).random(5)
        b = make_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(7)
        assert make_rng(rng) is rng

    def test_none_seed_works(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSeedSequenceFactory:
    def test_reproducible_fanout(self):
        a = [g.random() for g in SeedSequenceFactory(99).generators(4)]
        b = [g.random() for g in SeedSequenceFactory(99).generators(4)]
        assert a == b

    def test_children_are_independent_streams(self):
        factory = SeedSequenceFactory(5)
        first = factory.generator().random(3)
        second = factory.generator().random(3)
        assert not np.array_equal(first, second)

    def test_generators_yields_requested_count(self):
        assert len(list(SeedSequenceFactory(1).generators(7))) == 7
