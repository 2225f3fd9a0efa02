"""Tests for multi-target SOS (one overlay, many protected services)."""

from __future__ import annotations

import pytest

from repro.core import SOSArchitecture
from repro.errors import ConfigurationError, ProtocolError
from repro.sos.deployment import SOSDeployment
from repro.sos.multi_target import MultiTargetSOS


@pytest.fixture
def overlay():
    arch = SOSArchitecture(
        layers=3,
        mapping="one-to-half",
        total_overlay_nodes=500,
        sos_nodes=60,
        filters=5,
    )
    return MultiTargetSOS(SOSDeployment.deploy(arch, rng=7))


class TestRegistration:
    def test_site_resources(self, overlay):
        site = overlay.register_target("hospital", rng=1)
        assert len(site.servlet_ids) == 3
        assert len(site.filters) == 5
        servlet_layer = set(overlay.deployment.layer_members(3))
        assert set(site.servlet_ids) <= servlet_layer

    def test_directory_binding_published(self, overlay):
        site = overlay.register_target("hospital", rng=1)
        assert overlay.resolve_servlets("hospital") == list(site.servlet_ids)

    def test_distinct_filter_namespaces(self, overlay):
        a = overlay.register_target("a", rng=1)
        b = overlay.register_target("b", rng=2)
        assert not set(a.filters.filter_ids) & set(b.filters.filter_ids)

    def test_duplicate_target_rejected(self, overlay):
        overlay.register_target("a", rng=1)
        with pytest.raises(ConfigurationError, match="already registered"):
            overlay.register_target("a", rng=2)

    def test_too_many_servlets_rejected(self, overlay):
        with pytest.raises(ConfigurationError, match="not enough"):
            overlay.register_target("x", servlets_per_target=999, rng=1)

    def test_unknown_target_rejected(self, overlay):
        with pytest.raises(ProtocolError, match="unknown target"):
            overlay.site("ghost")
        with pytest.raises(ProtocolError, match="no directory binding"):
            overlay.resolve_servlets("ghost")

    def test_targets_listing(self, overlay):
        overlay.register_target("b", rng=1)
        overlay.register_target("a", rng=2)
        assert overlay.targets == ["a", "b"]


class TestForwarding:
    def test_delivery_to_each_target(self, overlay):
        overlay.register_target("a", rng=1)
        overlay.register_target("b", rng=2)
        for name in ("a", "b"):
            receipt = overlay.send("client", name, rng=3)
            assert receipt.delivered
            # 3 shared/servlet hops + the filter hop.
            assert len(receipt.hop_trail) == 4

    def test_final_hop_is_target_servlet_then_filter(self, overlay):
        site = overlay.register_target("a", rng=1)
        receipt = overlay.send("client", "a", rng=3)
        assert receipt.hop_trail[-2] in site.servlet_ids
        assert receipt.hop_trail[-1] in site.filters

    def test_deterministic_under_seed(self, overlay):
        overlay.register_target("a", rng=1)
        contacts = overlay.deployment.sample_client_contacts(
            __import__("numpy").random.default_rng(5)
        )
        r1 = overlay.send("c", "a", contacts=contacts, rng=9)
        r2 = overlay.send("c", "a", contacts=contacts, rng=9)
        assert r1.hop_trail == r2.hop_trail


class TestIsolation:
    def test_attacking_one_target_spares_the_other(self, overlay):
        overlay.register_target("victim", rng=1)
        overlay.register_target("bystander", rng=2)
        overlay.attack_target_site("victim")
        rates = overlay.delivery_rates(probes=50, rng=4)
        assert rates["victim"] == 0.0
        assert rates["bystander"] > 0.9

    def test_victim_failure_reason_is_its_own_resources(self, overlay):
        overlay.register_target("victim", rng=1)
        overlay.attack_target_site("victim")
        receipt = overlay.send("c", "victim", rng=3)
        assert not receipt.delivered
        assert "servlet" in receipt.failure_reason or "filter" in (
            receipt.failure_reason
        )

    def test_shared_layer_attack_hurts_everyone(self, overlay):
        overlay.register_target("a", rng=1)
        overlay.register_target("b", rng=2)
        for node_id in overlay.deployment.layer_members(2):
            overlay.deployment.network.get(node_id).congest()
        rates = overlay.delivery_rates(probes=30, rng=4)
        assert rates["a"] == 0.0
        assert rates["b"] == 0.0

    def test_servlet_sets_may_overlap_but_filters_do_not(self, overlay):
        a = overlay.register_target("a", rng=1)
        b = overlay.register_target("b", rng=2)
        # Servlet overlap is allowed (shared layer-L nodes can serve two
        # targets); what must never overlap is the filter hardware.
        assert not set(a.filters.filter_ids) & set(b.filters.filter_ids)
        assert not a.filters.admits(
            next(iter(set(b.servlet_ids) - set(a.servlet_ids)), -1)
        )
