"""Tests for the filter ring."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.sos.filters import FilterRing


@pytest.fixture
def ring():
    return FilterRing(count=5, layer=4, id_offset=1000)


class TestConstruction:
    def test_count_and_ids(self, ring):
        assert len(ring) == 5
        assert ring.filter_ids == [1000, 1001, 1002, 1003, 1004]

    def test_ids_offset_above_overlay(self, ring):
        assert all(filter_id >= 1000 for filter_id in ring.filter_ids)

    def test_filters_sit_at_given_layer(self, ring):
        assert all(f.sos_layer == 4 for f in ring)

    def test_rejects_zero_filters(self):
        with pytest.raises(ConfigurationError):
            FilterRing(count=0, layer=4, id_offset=1000)

    def test_rejects_layer_one(self):
        with pytest.raises(ConfigurationError):
            FilterRing(count=3, layer=1, id_offset=1000)

    def test_get_unknown_raises(self, ring):
        with pytest.raises(ProtocolError):
            ring.get(42)

    def test_contains(self, ring):
        assert 1000 in ring
        assert 42 not in ring


class TestServletAdmission:
    def test_allow_then_admit(self, ring):
        ring.allow_servlet(7)
        assert ring.admits(7)

    def test_unknown_servlet_rejected(self, ring):
        assert not ring.admits(7)


class TestAttackSurface:
    def test_congest_disclosed_filter(self, ring):
        ring.congest(1002)
        assert ring.get(1002).is_bad
        assert len(ring.good_filters()) == 4

    def test_reset_health(self, ring):
        ring.congest(1002)
        ring.reset_health()
        assert len(ring.good_filters()) == 5
