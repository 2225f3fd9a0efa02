"""One injection schedule, the packet engine and its oracle, zero drift.

Vectors compile to absolute-time offer arrays *before* any engine runs;
the event-driven oracle (``tests/perf/event_oracle.py``) chains them as
scheduler events while the packet engine merges them into its
pre-sampled rows. These tests pin the consequences: per-vector and
per-campaign, the two agree exactly on every report field and monitor
counter, and each is bit-deterministic per (spec, seed).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.scenarios import (
    BenignSurge,
    BotnetWave,
    PhaseSpec,
    PulsingFlood,
    TargetedLowRate,
    compile_scenario,
)
from repro.scenarios.runner import run_scenario
from repro.scenarios.zoo import list_scenarios
from repro.sos.deployment import SOSDeployment
from repro.simulation.packet_sim import PacketLevelSimulation

from tests.perf.event_oracle import EventPacketSimulation, event_engine
from tests.scenarios.conftest import tiny_spec

VECTOR_CASES = [
    PulsingFlood(layer=1, fraction=0.4, rate=250.0),
    BotnetWave(layer=1, fraction=0.4, bots=12, rate_per_bot=20.0),
    TargetedLowRate(layer=2, count=2, rate=90.0),
    BenignSurge(clients=4, rate=3.0, ramp=1.0),
]


def _single_vector_spec(vector):
    return tiny_spec(
        name=f"one-{vector.kind}",
        phases=(
            PhaseSpec("calm", 0.0, 4.0),
            PhaseSpec("hot", 4.0, 8.0, vectors=(vector,)),
        ),
    )


def _run_engine(spec, schedule, engine):
    deployment = SOSDeployment.deploy(
        spec.build_architecture(), rng=np.random.default_rng(3)
    )
    monitor = TrafficMonitor(MonitorConfig())
    simulation = engine(
        deployment,
        spec.sim_config(),
        rng=np.random.SeedSequence(spec.seed),
        monitor=monitor,
    )
    report = simulation.run(schedule=schedule)
    return report, monitor


def _run_scenario(spec, engine, **kwargs):
    if engine == "fast":
        return run_scenario(spec, **kwargs)
    with event_engine():
        return run_scenario(spec, **kwargs)


@pytest.mark.parametrize(
    "vector", VECTOR_CASES, ids=[v.kind for v in VECTOR_CASES]
)
def test_each_vector_is_identical_across_engines(vector):
    spec = _single_vector_spec(vector)
    deployment = SOSDeployment.deploy(
        spec.build_architecture(), rng=np.random.default_rng(3)
    )
    schedule = compile_scenario(spec, deployment, salt=0).schedule
    fast_report, fast_monitor = _run_engine(spec, schedule, PacketLevelSimulation)
    event_report, event_monitor = _run_engine(spec, schedule, EventPacketSimulation)
    assert dataclasses.asdict(fast_report) == dataclasses.asdict(event_report)
    # The monitor saw the exact same per-bin offered/dropped counters:
    # injection schedules AND token-bucket outcomes agree offer by offer.
    assert fast_monitor.snapshot() == event_monitor.snapshot()
    assert fast_monitor.observations == event_monitor.observations
    assert fast_monitor.flagged_nodes() == event_monitor.flagged_nodes()


def test_full_campaign_reports_identical_across_engines():
    spec = tiny_spec()
    fast = _run_scenario(spec, "fast", mode="detected", phases=2)
    event = _run_scenario(spec, "event", mode="detected", phases=2)
    assert fast == event


@pytest.mark.parametrize("engine", ["fast", "event"])
def test_per_engine_reports_are_bit_deterministic(engine):
    spec = tiny_spec()
    one = _run_scenario(spec, engine, mode="detected", phases=2)
    two = _run_scenario(spec, engine, mode="detected", phases=2)
    assert one == two


def test_gentle_no_drop_campaign_reports_fully_equal():
    # With traffic far below capacity nothing drops, so even delivered /
    # latency aggregates must match across engines bit for bit.
    spec = tiny_spec(
        name="gentle",
        phases=(
            PhaseSpec(
                "mild",
                2.0,
                8.0,
                vectors=(
                    TargetedLowRate(layer=2, count=1, rate=3.0),
                    BenignSurge(clients=2, rate=1.0, ramp=1.0),
                ),
            ),
        ),
    )
    deployment = SOSDeployment.deploy(
        spec.build_architecture(), rng=np.random.default_rng(3)
    )
    schedule = compile_scenario(spec, deployment, salt=0).schedule
    fast_report, _ = _run_engine(spec, schedule, PacketLevelSimulation)
    event_report, _ = _run_engine(spec, schedule, EventPacketSimulation)
    assert dataclasses.asdict(fast_report) == dataclasses.asdict(event_report)
    assert fast_report.delivery_ratio == 1.0


def test_seed_changes_change_the_campaign():
    spec = tiny_spec()
    one = run_scenario(spec, mode="none", phases=1)
    two = run_scenario(spec, mode="none", phases=1, seed=spec.seed + 1)
    assert one != two


@pytest.mark.parametrize("tier", ["numpy", "compiled"])
@pytest.mark.parametrize("mode", ["none", "detected"])
@pytest.mark.parametrize("name", list_scenarios())
def test_zoo_campaign_reports_equal_the_oracle(name, mode, tier):
    fast = _run_scenario(name, "fast", mode=mode, phases=2, tier=tier)
    event = _run_scenario(name, "event", mode=mode, phases=2, tier=tier)
    assert fast == event
