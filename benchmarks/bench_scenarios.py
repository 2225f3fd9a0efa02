"""Scenario-DSL benchmarks: vector compilation and fast-engine replay.

Two campaign shapes from the zoo's vector catalogue — a shrew-style
pulsing flood and a mirai-style botnet wave — scaled up to a 2000-node
deployment and replayed on the vectorized fast engine (mode ``none``,
one phase: pure engine + schedule cost, no repair loop). A third case
times :func:`compile_scenario` alone, so schedule lowering and engine
replay stay separately visible in the trajectory.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios import (
    ArchitectureSpec,
    BotnetWave,
    PhaseSpec,
    PulsingFlood,
    ScenarioSpec,
    SimSpec,
    compile_scenario,
)
from repro.scenarios.runner import run_scenario
from repro.sos.deployment import SOSDeployment

BENCH_ARCH = ArchitectureSpec(
    layers=3,
    mapping="one-to-two",
    overlay_nodes=2000,
    sos_nodes=120,
    filters=8,
)
BENCH_SIM = SimSpec(
    duration=40.0,
    warmup=4.0,
    clients=200,
    client_rate=2.0,
    node_capacity=50.0,
)


def _pulsing_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-pulsing",
        seed=17,
        architecture=BENCH_ARCH,
        sim=BENCH_SIM,
        phases=(
            PhaseSpec("baseline", 0.0, 8.0),
            PhaseSpec(
                "pulse",
                8.0,
                32.0,
                vectors=(
                    PulsingFlood(
                        layer=1, fraction=0.5, rate=400.0, period=2.0, duty=0.5
                    ),
                ),
            ),
        ),
    )


def _botnet_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-botnet",
        seed=23,
        architecture=BENCH_ARCH,
        sim=BENCH_SIM,
        phases=(
            PhaseSpec("quiet", 0.0, 8.0),
            PhaseSpec(
                "wave",
                8.0,
                32.0,
                vectors=(
                    BotnetWave(
                        layer=1,
                        fraction=0.5,
                        bots=120,
                        rate_per_bot=20.0,
                        recruit_rate=10.0,
                        mean_lifetime=12.0,
                    ),
                ),
            ),
        ),
    )


def test_pulsing_flood_fast(benchmark):
    report = benchmark.pedantic(
        run_scenario,
        args=(_pulsing_spec(),),
        kwargs={"mode": "none", "phases": 1},
        rounds=1,
        iterations=1,
    )
    assert sum(report.sent_per_phase) > 5_000
    assert sum(report.attack_packets_per_phase) > 50_000


def test_botnet_wave_fast(benchmark):
    report = benchmark.pedantic(
        run_scenario,
        args=(_botnet_spec(),),
        kwargs={"mode": "none", "phases": 1},
        rounds=1,
        iterations=1,
    )
    assert sum(report.sent_per_phase) > 5_000
    assert sum(report.attack_packets_per_phase) > 20_000


def test_compile_scenario_only(benchmark):
    spec = _botnet_spec()
    deployment = SOSDeployment.deploy(
        spec.build_architecture(), rng=np.random.default_rng(5)
    )
    compiled = benchmark.pedantic(
        compile_scenario, args=(spec, deployment), rounds=1, iterations=1
    )
    assert compiled.schedule.total_attack_packets > 20_000
