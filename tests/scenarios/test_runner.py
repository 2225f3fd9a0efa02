"""run_scenario / DetectionRepairLoop.run_scenario behavior."""

from __future__ import annotations

import pytest

from repro.detection.loop import DetectionRepairLoop
from repro.errors import DetectionError, ScenarioError
from repro.repair.policy import NO_REPAIR, RepairPolicy
from repro.scenarios import load_scenario
from repro.scenarios.runner import run_scenario

from tests.scenarios.conftest import tiny_spec


def test_detected_mode_repairs_and_recovers(spec):
    report = run_scenario(spec, mode="detected", phases=2)
    assert report.scenario == spec.name
    assert report.phases == 2
    assert report.initial_targets
    assert report.total_repaired > 0
    # Every repaired true target leaves the schedule, so the later phase
    # absorbs strictly less attack traffic than the first.
    assert report.attack_packets_per_phase[1] < report.attack_packets_per_phase[0]
    assert report.final_delivery >= report.delivery_per_phase[0]
    assert 0.0 <= report.precision <= 1.0
    assert report.recall > 0.0


def test_none_mode_never_repairs(spec):
    report = run_scenario(spec, mode="none", phases=2)
    assert report.total_repaired == 0
    assert all(not flagged for flagged in report.repaired_per_phase)
    # The attack persists: both phases absorb attack traffic.
    assert all(count > 0 for count in report.attack_packets_per_phase)


def test_oracle_mode_repairs_true_targets(spec):
    report = run_scenario(spec, mode="oracle", phases=2)
    repaired = {node for phase in report.repaired_per_phase for node in phase}
    assert repaired <= set(report.initial_targets)
    assert report.attack_packets_per_phase[1] < report.attack_packets_per_phase[0]


def test_runs_zoo_scenarios_by_name():
    report = run_scenario("flash-crowd", mode="none", phases=1)
    assert report.scenario == "flash-crowd"
    assert report.initial_targets == ()
    assert report.recall == 1.0


def test_tier_seed_default_to_the_spec():
    spec = load_scenario("stealth-lowrate")
    report = run_scenario(spec, phases=1)
    assert report.tier == spec.tier
    assert report.seed == spec.seed


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "bogus"},
        {"tier": "gpu"},
        {"tier": "scalar"},
        {"tier": "Compiled"},  # tier names are case-sensitive
    ],
)
def test_run_scenario_validates_knobs(spec, kwargs):
    with pytest.raises(ScenarioError):
        run_scenario(spec, **kwargs)


def test_run_scenario_rejects_non_spec():
    with pytest.raises(ScenarioError, match="zoo name or ScenarioSpec"):
        run_scenario(12345)


def test_noop_policy_rejected(spec):
    # NO_REPAIR can never repair; the loop refuses it up front rather
    # than silently running a "detected" campaign with a dead defender.
    with pytest.raises(DetectionError, match="no-op"):
        run_scenario(spec, mode="detected", phases=1, policy=NO_REPAIR)


def test_capacity_limited_policy_bounds_repairs(spec):
    report = run_scenario(
        spec,
        mode="detected",
        phases=2,
        policy=RepairPolicy(detection_probability=1.0, capacity_per_round=1),
    )
    assert all(len(phase) <= 1 for phase in report.repaired_per_phase)
    assert report.total_repaired >= 1


def test_tier_threading_is_bit_identical(spec):
    import dataclasses

    reports = {
        tier: run_scenario(spec, mode="detected", phases=2, tier=tier)
        for tier in ("numpy", "compiled")
    }
    assert reports["compiled"] == dataclasses.replace(
        reports["numpy"], tier="compiled"
    )


def test_loop_rejects_marking_with_schedules(spec):
    from repro.detection.marking import MarkingConfig
    from repro.detection.monitor import MonitorConfig

    loop = DetectionRepairLoop(
        spec.build_architecture(),
        spec.sim_config(),
        MonitorConfig(),
        RepairPolicy(detection_probability=1.0),
        marking_config=MarkingConfig(
            probability=0.05, sources_per_target=1, path_depth=3
        ),
        seed=1,
    )
    with pytest.raises(DetectionError, match="marking"):
        loop.run_scenario(spec, phases=1)


def test_abort_check_fires_before_each_phase(spec):
    calls = []

    class Stop(RuntimeError):
        pass

    def abort():
        calls.append(True)
        if len(calls) >= 2:
            raise Stop()

    with pytest.raises(Stop):
        run_scenario(spec, phases=3, abort_check=abort)
    assert len(calls) == 2


def test_report_to_dict_is_json_friendly(spec):
    import json

    report = run_scenario(spec, mode="detected", phases=1)
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["final_delivery"] == report.final_delivery
    assert payload["total_repaired"] == report.total_repaired
