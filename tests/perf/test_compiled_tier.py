"""Engine-level tier contracts: numpy / compiled equality.

The tier knob (``PacketSimConfig.tier``) is documented as a pure speed
selector: on the same seeds and the same (possibly churned) deployment,
both tiers must produce the *same report* — injection schedules, drop
decisions, congested-node sets, latency statistics. These tests run the
full engine at every available tier and require field-for-field
equality, plus the graceful-degradation path when the C kernels cannot
be built. The monitor's batched detector scan is held to the per-node
scalar oracle the same way.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core import SOSArchitecture
from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.overlay.arrays import HEALTH_COMPROMISED, HEALTH_CRASHED
from repro.perf import _cc, compiled
from repro.perf.compiled import (
    CompiledTierUnavailableWarning,
    available_tiers,
    compiled_backend,
    resolve_tier,
)
from repro.perf.fastsim import run_packet_replicas
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment
from tests.perf.oracles import scalar_detection_bins


def deployment(seed=11, nodes=400, sos_nodes=30, mapping="one-to-half"):
    arch = SOSArchitecture(
        layers=3,
        mapping=mapping,
        total_overlay_nodes=nodes,
        sos_nodes=sos_nodes,
        filters=4,
    )
    return SOSDeployment.deploy(arch, rng=seed)


def churn(dep, seed, fraction=0.1):
    """Knock out a random slice of overlay nodes (compromise + crash)."""
    rng = np.random.default_rng(seed)
    store = dep.network.store
    rows = len(store.health)
    hit = rng.choice(rows, size=max(1, int(rows * fraction)), replace=False)
    for index, row in enumerate(hit):
        store.set_health(
            int(row),
            HEALTH_COMPROMISED if index % 2 == 0 else HEALTH_CRASHED,
        )
    return dep


def run_at(tier, seed, *, targets=False, clients=40, dep_seed=11,
           churn_seed=None, flood_at=1, mapping="one-to-half"):
    dep = deployment(dep_seed, mapping=mapping)
    if churn_seed is not None:
        churn(dep, churn_seed)
    flood = (
        flood_layer(dep, layer=flood_at, fraction=0.5, rng=3)
        if targets else None
    )
    config = PacketSimConfig(
        duration=20.0,
        warmup=5.0,
        clients=clients,
        client_rate=0.8,
        flood_rate=120.0,
        tier=tier,
    )
    return PacketLevelSimulation(dep, config, rng=seed).run(
        flood_targets=flood
    )


#: Flooded layer x mapping x seed. Layer 1 under one-to-half — the
#: original case — keeps its bare seed ids.
FLOODED_CASES = [
    pytest.param(
        flood_at, mapping, seed,
        id=(
            str(seed) if (flood_at, mapping) == (1, "one-to-half")
            else f"L{flood_at}-{mapping}-{seed}"
        ),
    )
    for flood_at in range(1, 5)
    for mapping in ("one-to-two", "one-to-half", "one-to-all")
    for seed in range(5)
]


class TestPacketEngineTierEquality:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_drop_runs_identical(self, seed):
        reports = [
            dataclasses.asdict(run_at(tier, seed))
            for tier in available_tiers()
        ]
        for other in reports[1:]:
            assert other == reports[0]

    @pytest.mark.parametrize("flood_at,mapping,seed", FLOODED_CASES)
    def test_flooded_churned_runs_identical(self, flood_at, mapping, seed):
        # Flooding layer h > 1 congests the targets of layer h-1's
        # routing, so route tables see congestion flags flip mid-run.
        reports = {
            tier: dataclasses.asdict(
                run_at(
                    tier, seed, targets=True, churn_seed=seed + 50,
                    flood_at=flood_at, mapping=mapping,
                )
            )
            for tier in available_tiers()
        }
        baseline = reports.pop("numpy")
        assert baseline["sent"] > 0
        for tier, report in reports.items():
            assert report == baseline, f"tier {tier!r} diverged"

    def test_zero_clients_identical(self):
        reports = [
            dataclasses.asdict(
                run_at(tier, 0, targets=True, clients=0)
            )
            for tier in available_tiers()
        ]
        assert reports[0]["sent"] == 0
        for other in reports[1:]:
            assert other == reports[0]

    @pytest.mark.skipif(
        compiled_backend() is None,
        reason="no compiled backend available",
    )
    def test_replica_sweep_tier_identical(self):
        arch = SOSArchitecture(
            layers=3, mapping="one-to-half", total_overlay_nodes=400,
            sos_nodes=30, filters=4,
        )
        results = {}
        for tier in ("numpy", "compiled"):
            config = PacketSimConfig(
                duration=15.0, warmup=5.0, clients=30, client_rate=0.8,
                flood_rate=100.0, tier=tier,
            )
            reports = run_packet_replicas(
                arch, config, replicas=3, flood_layer_index=1,
                flood_fraction=0.5, seed=17, workers=1,
            )
            results[tier] = [dataclasses.asdict(r) for r in reports]
        assert results["numpy"] == results["compiled"]


def _monitor_stream(seed, nodes=40, offers=4000, horizon=40.0):
    rng = np.random.default_rng(seed)
    node_ids = rng.integers(0, nodes, size=offers).astype(np.int64)
    times = np.sort(rng.random(offers) * horizon)
    accepted = rng.random(offers) < 0.9
    # Step up load on a subset mid-run so some detectors actually fire.
    late = times > horizon / 2.0
    surge = node_ids % 3 == 0
    extra = late & surge
    node_ids = np.concatenate([node_ids, np.repeat(node_ids[extra], 2)])
    times = np.concatenate([times, np.repeat(times[extra], 2)])
    accepted = np.concatenate(
        [accepted, np.ones(int(extra.sum()) * 2, dtype=bool)]
    )
    return node_ids, times, accepted


class TestMonitorTierEquality:
    @pytest.mark.parametrize("method", ["cusum", "ewma"])
    @pytest.mark.parametrize("seed", range(4))
    def test_flag_sequences_identical(self, method, seed):
        # EWMA smooths the surge away at the default h=8; a lower
        # threshold keeps both detectors firing on this workload.
        config = MonitorConfig(
            bin_width=0.5, warmup_bins=2, baseline_bins=6, method=method,
            threshold=8.0 if method == "cusum" else 2.0,
        )
        monitor = TrafficMonitor(config)
        monitor.observe_batch(*_monitor_stream(seed))
        expected = scalar_detection_bins(monitor)
        assert any(
            value is not None for value in expected.values()
        ), "workload produced no detections — test is vacuous"
        assert monitor.detection_bins() == expected
        assert monitor.flagged_nodes() == [
            node for node, bin_index in expected.items() if bin_index is not None
        ]

    def test_batched_agrees_with_per_node_scan(self):
        config = MonitorConfig(bin_width=0.5, warmup_bins=2, baseline_bins=6)
        monitor = TrafficMonitor(config)
        monitor.observe_batch(*_monitor_stream(99))
        batched = monitor.detection_bins()
        for node_id, bin_index in batched.items():
            assert monitor.detection_bin(node_id) == bin_index


class TestDegradation:
    """tier='compiled' with no backend: warn once, run numpy, same bits."""

    @pytest.fixture()
    def no_backend(self, monkeypatch):
        monkeypatch.setattr(_cc, "load_library", lambda: None)
        monkeypatch.setattr(compiled, "_WARNED", False)

    def test_warns_once_and_degrades(self, no_backend):
        assert available_tiers() == ("numpy",)
        with pytest.warns(CompiledTierUnavailableWarning):
            assert resolve_tier("compiled") == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_tier("compiled") == "numpy"  # silent now

    def test_compiled_request_matches_numpy_report(self, no_backend):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CompiledTierUnavailableWarning)
            degraded = run_at("compiled", 2, targets=True)
        expected = run_at("numpy", 2, targets=True)
        assert dataclasses.asdict(degraded) == dataclasses.asdict(expected)

    def test_forced_backend_env_respected(self, monkeypatch, tmp_path):
        # REPRO_CC pins the compiler; one that does not exist leaves no
        # backend, and the degradation warning says why.
        monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
        monkeypatch.setattr(compiled, "_WARNED", False)
        _cc._reset_for_tests()
        try:
            assert compiled_backend() is None
            with pytest.warns(CompiledTierUnavailableWarning, match="REPRO_CC"):
                assert resolve_tier("compiled") == "numpy"
        finally:
            monkeypatch.undo()
            _cc._reset_for_tests()
