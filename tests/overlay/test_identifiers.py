"""Tests for the m-bit identifier space."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.overlay.chord import ChordRing
from repro.overlay.identifiers import IdentifierSpace


class TestConstruction:
    def test_size(self):
        assert IdentifierSpace(8).size == 256

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            IdentifierSpace(0)

    def test_rejects_oversized_bits(self):
        with pytest.raises(ConfigurationError):
            IdentifierSpace(200)

    def test_widest_space_is_62_bits(self):
        # Node ids and finger starts id + 2**(bits - 1) stay in int64.
        assert IdentifierSpace(62).size == 2**62
        with pytest.raises(ConfigurationError, match=r"\[1, 62\], got 63"):
            IdentifierSpace(63)

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            IdentifierSpace(True)  # type: ignore[arg-type]


class TestHashing:
    def test_deterministic(self):
        space = IdentifierSpace(16)
        assert space.hash_key("target") == space.hash_key("target")

    def test_within_ring(self):
        space = IdentifierSpace(8)
        for key in ("a", "b", "target:1", "x" * 100):
            assert 0 <= space.hash_key(key) < 256

    def test_different_keys_usually_differ(self):
        space = IdentifierSpace(32)
        values = {space.hash_key(f"key-{i}") for i in range(100)}
        assert len(values) == 100


class TestValidation:
    def test_contains(self):
        space = IdentifierSpace(4)
        assert space.contains(0)
        assert space.contains(15)
        assert not space.contains(16)
        assert not space.contains(-1)
        assert not space.contains("3")  # type: ignore[arg-type]

    def test_validate_passthrough(self):
        assert IdentifierSpace(4).validate(7) == 7

    def test_validate_rejects(self):
        with pytest.raises(ConfigurationError):
            IdentifierSpace(4).validate(16)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.uint64])
    def test_numpy_integers_are_identifiers(self, kind):
        space = IdentifierSpace(8)
        assert space.contains(kind(37))
        value = space.validate(kind(37))
        assert value == 37 and type(value) is int
        assert not space.contains(np.int64(256))
        assert not space.contains(np.int64(-1))
        assert not space.contains(np.float64(3.0))
        with pytest.raises(ConfigurationError, match="outside ring"):
            space.validate(np.int64(256))

    def test_chord_takes_numpy_keys(self):
        ring = ChordRing.build([1, 18, 36, 99, 200], bits=8)
        result = ring.lookup(np.int64(37), start=1)
        assert result == ring.lookup(37, start=1)
        assert type(result.key) is int
        assert ring.find_successor(np.int64(3)) == ring.find_successor(3) == 18
        holders = ring.put(np.int64(40), "v")
        assert ring.get(np.int64(40)) == "v" and holders


class TestIntervals:
    def test_distance_wraps(self):
        space = IdentifierSpace(4)  # ring of 16
        assert space.distance(14, 2) == 4
        assert space.distance(2, 14) == 12
        assert space.distance(5, 5) == 0

    def test_open_interval_simple(self):
        space = IdentifierSpace(4)
        assert space.in_open_interval(5, 3, 8)
        assert not space.in_open_interval(3, 3, 8)
        assert not space.in_open_interval(8, 3, 8)

    def test_open_interval_wrapping(self):
        space = IdentifierSpace(4)
        assert space.in_open_interval(15, 14, 2)
        assert space.in_open_interval(1, 14, 2)
        assert not space.in_open_interval(5, 14, 2)

    def test_open_interval_degenerate(self):
        space = IdentifierSpace(4)
        # (x, x) covers the whole ring minus x.
        assert space.in_open_interval(5, 3, 3)
        assert not space.in_open_interval(3, 3, 3)

    def test_half_open_includes_end(self):
        space = IdentifierSpace(4)
        assert space.in_half_open_interval(8, 3, 8)
        assert not space.in_half_open_interval(3, 3, 8)

    def test_half_open_degenerate_covers_ring(self):
        space = IdentifierSpace(4)
        assert space.in_half_open_interval(11, 6, 6)
        assert space.in_half_open_interval(6, 6, 6)


class TestFingerStarts:
    def test_powers_of_two(self):
        space = IdentifierSpace(8)
        assert [space.finger_start(10, i) for i in range(4)] == [11, 12, 14, 18]

    def test_wraps(self):
        space = IdentifierSpace(4)
        assert space.finger_start(15, 1) == 1

    def test_index_bounds(self):
        space = IdentifierSpace(4)
        with pytest.raises(ConfigurationError):
            space.finger_start(0, 4)
        with pytest.raises(ConfigurationError):
            space.finger_start(0, -1)


@given(
    bits=st.integers(min_value=2, max_value=16),
    value=st.integers(min_value=0),
    start=st.integers(min_value=0),
    end=st.integers(min_value=0),
)
def test_property_half_open_is_open_plus_endpoint(bits, value, start, end):
    space = IdentifierSpace(bits)
    value, start, end = value % space.size, start % space.size, end % space.size
    half_open = space.in_half_open_interval(value, start, end)
    open_ = space.in_open_interval(value, start, end)
    if value == end:
        assert half_open
    elif start != end:
        assert half_open == open_


@given(
    bits=st.integers(min_value=2, max_value=16),
    a=st.integers(min_value=0),
    b=st.integers(min_value=0),
)
def test_property_distance_antisymmetry(bits, a, b):
    space = IdentifierSpace(bits)
    a, b = a % space.size, b % space.size
    if a != b:
        assert space.distance(a, b) + space.distance(b, a) == space.size
    else:
        assert space.distance(a, b) == 0
