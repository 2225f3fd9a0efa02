"""Tests for the generalized SOS architecture configuration."""

from __future__ import annotations

import dataclasses
import time

import pytest
from hypothesis import assume, given, strategies as st

from repro.core import (
    NodeDistribution,
    SOSArchitecture,
    original_sos_architecture,
)
from repro.core.architecture import MAX_LAYERS
from repro.errors import ConfigurationError


class TestConstruction:
    def test_paper_defaults(self):
        arch = SOSArchitecture(layers=3)
        assert arch.total_overlay_nodes == 10_000
        assert arch.sos_nodes == 100
        assert arch.filters == 10
        assert arch.layer_sizes_tuple == pytest.approx((100 / 3,) * 3)

    def test_layer_sizes_include_filters(self):
        arch = SOSArchitecture(layers=2)
        assert arch.layer_sizes_with_filters == pytest.approx((50.0, 50.0, 10.0))

    def test_explicit_layer_sizes(self):
        arch = SOSArchitecture(layers=3, layer_sizes=[10, 30, 60])
        assert arch.sos_nodes == 100
        assert arch.layer_sizes_tuple == (10.0, 30.0, 60.0)

    def test_explicit_sizes_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="layer_sizes has"):
            SOSArchitecture(layers=3, layer_sizes=[50, 50])

    def test_explicit_sizes_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SOSArchitecture(layers=2, layer_sizes=[100, 0])

    def test_sos_cannot_exceed_overlay(self):
        with pytest.raises(ConfigurationError, match="cannot exceed"):
            SOSArchitecture(layers=1, sos_nodes=200, total_overlay_nodes=100)

    def test_distribution_by_name(self):
        arch = SOSArchitecture(layers=4, distribution="increasing")
        sizes = arch.layer_sizes_tuple
        assert sizes[0] == pytest.approx(25.0)
        assert sizes[1] < sizes[2] < sizes[3]

    def test_frozen(self):
        arch = SOSArchitecture(layers=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            arch.layers = 4  # type: ignore[misc]

    def test_rejects_zero_layers(self):
        with pytest.raises(ConfigurationError):
            SOSArchitecture(layers=0)

    def test_rejects_unbounded_layers(self):
        SOSArchitecture(layers=MAX_LAYERS)
        for kwargs in (
            dict(layers=MAX_LAYERS + 1),
            dict(layers=10**6),
            dict(layers=10**5, total_overlay_nodes=10**9, sos_nodes=10**7),
            dict(layers=3, layer_sizes=[1.0] * 10**6),
        ):
            start = time.perf_counter()
            with pytest.raises(ConfigurationError, match="layer") as info:
                SOSArchitecture(**kwargs)
            assert time.perf_counter() - start < 0.5
            assert len(str(info.value)) < 100

    def test_thin_layer_message_is_bounded(self):
        with pytest.raises(ConfigurationError, match="and 92 more") as info:
            SOSArchitecture(layers=MAX_LAYERS, sos_nodes=50)
        assert len(str(info.value)) < 300

    def test_rejects_zero_filters(self):
        with pytest.raises(ConfigurationError):
            SOSArchitecture(layers=3, filters=0)


class TestMappingDegrees:
    def test_one_to_all_resolution(self):
        arch = SOSArchitecture(layers=3, mapping="one-to-all")
        # Each SOS layer has 33.33 nodes -> 33 distinct neighbors; all 10 filters.
        assert arch.mapping_degrees == (33, 33, 33, 10)

    def test_one_to_one_resolution(self):
        arch = SOSArchitecture(layers=3, mapping="one-to-one")
        assert arch.mapping_degrees == (1, 1, 1, 1)

    def test_filter_mapping_override(self):
        arch = SOSArchitecture(
            layers=3, mapping="one-to-one", filter_mapping="one-to-all"
        )
        assert arch.mapping_degrees == (1, 1, 1, 10)

    def test_mapping_degree_accessor(self):
        arch = SOSArchitecture(layers=3, mapping="one-to-half")
        assert arch.mapping_degree(1) == 17  # round(33.33 / 2)
        assert arch.mapping_degree(4) == 5  # half of 10 filters

    def test_layer_index_bounds(self):
        arch = SOSArchitecture(layers=2)
        with pytest.raises(ConfigurationError):
            arch.mapping_degree(0)
        with pytest.raises(ConfigurationError):
            arch.mapping_degree(4)
        with pytest.raises(ConfigurationError):
            arch.mapping_degree(1.5)  # type: ignore[arg-type]


class TestDerivedViews:
    def test_integer_layer_sizes_preserve_total(self):
        arch = SOSArchitecture(layers=3)
        assert sum(arch.integer_layer_sizes) == 100

    def test_describe_mentions_key_features(self):
        text = SOSArchitecture(layers=4, mapping="one-to-two").describe()
        assert "L=4" in text
        assert "one-to-2" in text
        assert "N=10000" in text


class TestOriginalSOS:
    def test_is_three_layer_one_to_all(self):
        arch = original_sos_architecture()
        assert arch.layers == 3
        assert arch.mapping_policy.label == "one-to-all"
        assert arch.mapping_degrees[:3] == (33, 33, 33)

    def test_custom_population(self):
        arch = original_sos_architecture(total_overlay_nodes=5000, sos_nodes=60)
        assert arch.total_overlay_nodes == 5000
        assert arch.sos_nodes == 60


@given(
    layers=st.integers(min_value=1, max_value=15),
    mapping=st.sampled_from(
        ["one-to-one", "one-to-two", "one-to-five", "one-to-half", "one-to-all"]
    ),
    distribution=st.sampled_from(list(NodeDistribution)),
    sos_nodes=st.integers(min_value=20, max_value=400),
)
def test_property_architecture_invariants(layers, mapping, distribution, sos_nodes):
    """Any valid configuration yields consistent derived views."""
    try:
        arch = SOSArchitecture(
            layers=layers,
            mapping=mapping,
            distribution=distribution,
            sos_nodes=sos_nodes,
        )
    except ConfigurationError:
        # Distributions that starve a layer below one node are rejected;
        # that is itself the contract under test here.
        assume(False)
    sizes = arch.layer_sizes_with_filters
    degrees = arch.mapping_degrees
    assert len(sizes) == layers + 1
    assert len(degrees) == layers + 1
    assert sum(arch.layer_sizes_tuple) == pytest.approx(float(sos_nodes))
    for size, degree in zip(sizes, degrees):
        assert 1 <= degree <= size
    assert sum(arch.integer_layer_sizes) == sos_nodes
