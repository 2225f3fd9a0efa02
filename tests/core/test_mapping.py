"""Tests for mapping-degree policies."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.mapping import (
    ONE_TO_ALL,
    ONE_TO_FIVE,
    ONE_TO_HALF,
    ONE_TO_ONE,
    ONE_TO_TWO,
    FixedMapping,
    FractionMapping,
    resolve_mapping,
)
from repro.errors import ConfigurationError


class TestFixedMapping:
    def test_basic_degree(self):
        assert FixedMapping(3).degree_for(33) == 3

    def test_clamped_to_layer_size(self):
        assert FixedMapping(5).degree_for(2) == 2

    def test_fractional_layer_floor(self):
        # A layer of 4.8 nodes can expose at most 4 distinct neighbors.
        assert FixedMapping(10).degree_for(4.8) == 4

    def test_minimum_one(self):
        assert FixedMapping(1).degree_for(1) == 1

    def test_rejects_zero_degree(self):
        with pytest.raises(ConfigurationError):
            FixedMapping(0)

    def test_rejects_empty_layer(self):
        with pytest.raises(ConfigurationError):
            FixedMapping(1).degree_for(0.5)

    def test_label(self):
        assert FixedMapping(7).label == "one-to-7"
        assert ONE_TO_ONE.label == "one-to-one".replace("one-to-one", "one-to-1")


class TestFractionMapping:
    def test_half(self):
        assert FractionMapping(0.5).degree_for(34) == 17

    def test_all(self):
        assert FractionMapping(1.0).degree_for(33) == 33

    def test_rounding(self):
        assert FractionMapping(0.5).degree_for(33) == round(16.5)

    def test_at_least_one(self):
        assert FractionMapping(0.1).degree_for(3) == 1

    def test_rejects_zero_fraction(self):
        with pytest.raises(ConfigurationError):
            FractionMapping(0.0)

    def test_rejects_above_one(self):
        with pytest.raises(ConfigurationError):
            FractionMapping(1.5)

    def test_labels(self):
        assert ONE_TO_HALF.label == "one-to-half"
        assert ONE_TO_ALL.label == "one-to-all"
        assert FractionMapping(0.25).label == "one-to-0.25frac"


class TestResolve:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("one-to-one", ONE_TO_ONE),
            ("one-to-two", ONE_TO_TWO),
            ("one-to-five", ONE_TO_FIVE),
            ("one-to-half", ONE_TO_HALF),
            ("one-to-all", ONE_TO_ALL),
        ],
    )
    def test_named_policies(self, name, expected):
        assert resolve_mapping(name) == expected

    def test_integer_shorthand(self):
        assert resolve_mapping(4) == FixedMapping(4)

    def test_policy_passthrough(self):
        policy = FractionMapping(0.3)
        assert resolve_mapping(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown mapping policy"):
            resolve_mapping("one-to-none")

    def test_bool_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_mapping(True)

    def test_float_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_mapping(0.5)  # type: ignore[arg-type]


@given(
    degree=st.integers(min_value=1, max_value=100),
    size=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
)
def test_property_fixed_degree_bounds(degree, size):
    resolved = FixedMapping(degree).degree_for(size)
    assert 1 <= resolved <= size


@given(
    fraction=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    size=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
)
def test_property_fraction_degree_bounds(fraction, size):
    resolved = FractionMapping(fraction).degree_for(size)
    assert 1 <= resolved <= size
