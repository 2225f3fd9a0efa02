"""Shared-deployment replica sharding over ``multiprocessing.shared_memory``.

``run_packet_replicas(..., deployment=...)`` runs every replica over one
pre-encoded deployment instead of deploying per replica; across worker
processes the encoding travels as a single shared-memory segment mapped
read-only. The contracts under test: worker-count invariance (reports
are bit-identical for any ``workers`` value, shared segment or not),
agreement between the shared path and per-replica fresh deployments
given identical deployment state, and the validation surface.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import SOSArchitecture
from repro.errors import SimulationError
from repro.perf.fastsim import run_packet_replicas
from repro.simulation.packet_sim import PacketSimConfig
from repro.sos.deployment import SOSDeployment

ARCH = SOSArchitecture(
    layers=3,
    mapping="one-to-half",
    total_overlay_nodes=400,
    sos_nodes=30,
    filters=4,
)
CONFIG = PacketSimConfig(duration=10.0, warmup=2.0, clients=4, client_rate=2.0)


def shared_deployment(seed=11):
    return SOSDeployment.deploy(ARCH, rng=seed)


class TestWorkerInvariance:
    def test_serial_and_parallel_bit_identical(self):
        dep = shared_deployment()
        kwargs = dict(
            flood_layer_index=1,
            flood_fraction=0.5,
            seed=123,
            deployment=dep,
        )
        serial = run_packet_replicas(
            ARCH, CONFIG, replicas=9, workers=1, **kwargs
        )
        # 9 replicas go out as chunks of 2 over 2 workers and of 1 over 3.
        for workers in (2, 3):
            parallel = run_packet_replicas(
                ARCH, CONFIG, replicas=9, workers=workers, **kwargs
            )
            assert len(serial) == len(parallel) == 9
            for a, b in zip(serial, parallel):
                assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_replicas_differ_from_each_other(self):
        # One shared deployment, distinct replica streams: flood targets
        # and client draws vary, so flooded replicas are not clones.
        reports = run_packet_replicas(
            ARCH,
            CONFIG,
            replicas=4,
            workers=1,
            flood_layer_index=1,
            flood_fraction=0.5,
            seed=7,
            deployment=shared_deployment(),
        )
        assert len({report.delivery_ratio for report in reports}) > 1


class TestSharedStateSemantics:
    def test_health_snapshot_is_honored(self):
        # Crashing the whole first layer before sharing must collapse
        # delivery in every replica: the shared is_bad snapshot carries
        # the damage, with no flood needed.
        dep = shared_deployment()
        for node_id in dep.layer_members(1):
            dep.resolve(node_id).crash()
        reports = run_packet_replicas(
            ARCH, CONFIG, replicas=2, workers=1, seed=3, deployment=dep
        )
        assert all(report.delivery_ratio == 0.0 for report in reports)

    def test_healthy_shared_deployment_delivers_everything(self):
        reports = run_packet_replicas(
            ARCH, CONFIG, replicas=3, workers=1, seed=5,
            deployment=shared_deployment(),
        )
        assert all(report.delivery_ratio == 1.0 for report in reports)
        assert all(report.sent > 0 for report in reports)


class TestValidation:
    def test_architecture_mismatch_rejected(self):
        other = SOSArchitecture(
            layers=3,
            mapping="one-to-half",
            total_overlay_nodes=200,
            sos_nodes=24,
            filters=4,
        )
        dep = SOSDeployment.deploy(other, rng=1)
        with pytest.raises(SimulationError):
            run_packet_replicas(ARCH, CONFIG, replicas=2, deployment=dep)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", True),
            ("workers", 2.5),
            ("workers", "2"),
            ("workers", -1),
            ("replicas", True),
            ("replicas", 2.5),
            ("replicas", "2"),
            ("replicas", 0),
        ],
    )
    def test_counts_must_be_ints(self, field, value):
        counts = {"replicas": 2, "workers": 1, field: value}
        with pytest.raises(SimulationError, match=field):
            run_packet_replicas(ARCH, CONFIG, **counts)
