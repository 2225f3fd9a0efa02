"""Tests for the DHT-backed target directory (beacon state).

The directory belongs to :class:`~repro.sos.multi_target.MultiTargetSOS`:
registering a target stores its servlet set in the deployment's Chord
ring under ``multi-target:<name>``, replicated on three ring successors,
and the final beacon resolves it from there.
"""

from __future__ import annotations

import pytest

from repro.core import SOSArchitecture
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


def directory_key(overlay, name):
    return overlay.deployment.chord.space.hash_key(f"multi-target:{name}")


class TestPublishResolve:
    def test_holders_are_sos_members(self, overlay):
        overlay.register_target("hospital", rng=1)
        chord = overlay.deployment.chord
        key = directory_key(overlay, "hospital")
        holders = [n for n in chord.live_node_ids if key in chord.node(n).store]
        assert len(holders) == 3
        sos_ids = {n.node_id for n in overlay.deployment.network.sos_nodes}
        assert set(holders) <= sos_ids

    def test_resolution_from_any_start(self, overlay):
        site = overlay.register_target("t", rng=1)
        chord = overlay.deployment.chord
        for start in chord.live_node_ids[:6]:
            assert chord.get_key("multi-target:t", start=start) == list(
                site.servlet_ids
            )


class TestBeaconFailure:
    def test_binding_survives_beacon_crash(self, overlay):
        site = overlay.register_target("hospital", rng=1)
        chord = overlay.deployment.chord
        chord.fail(chord.find_successor(directory_key(overlay, "hospital")))
        assert overlay.resolve_servlets("hospital") == list(site.servlet_ids)
