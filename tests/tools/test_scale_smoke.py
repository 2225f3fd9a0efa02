"""``tools/scale_smoke.py`` (the CI scale job) at a size tier-1 can run."""

from __future__ import annotations

import pytest

import scale_smoke


def test_small_run_pins_every_phase():
    report = scale_smoke.run_scale_smoke(
        nodes=3000,
        sos_nodes=120,
        lookups=100,
        clients=20,
        flood_fraction=0.5,
        seed=1,
    )
    phases = report["phases"]
    assert phases["encode"]["slots"] == 130
    flooded = phases["flooded_fastsim"]
    assert flooded["flood_targets"] == 20
    assert flooded["sent"] == 488
    assert flooded["delivered"] == 384
    assert flooded["attack_packets_absorbed"] == 15_964
    # The Chord phase draws from the generator the packet engine was
    # seeded from, so it also pins the state the engine leaves behind.
    chord = phases["chord_lookup_batch"]
    assert chord["succeeded"] == 100
    assert chord["mean_hops"] == pytest.approx(4.08)
