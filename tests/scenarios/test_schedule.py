"""Schedule lowering: merge semantics, repair subtraction, fingerprints."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.scenarios import PhaseSpec, PulsingFlood, compile_scenario
from repro.scenarios.schedule import InjectionSchedule

from tests.scenarios.conftest import tiny_spec


def test_compile_merges_per_node_rows_sorted(spec, deployment):
    # Two pulsing floods over the same layer in the same phase: nodes hit
    # by both must end up with one sorted merged row.
    doubled = dataclasses.replace(
        spec,
        phases=(
            spec.phases[0],
            dataclasses.replace(
                spec.phases[1],
                vectors=(
                    PulsingFlood(layer=1, fraction=0.8, rate=100.0),
                    PulsingFlood(layer=1, fraction=0.8, rate=100.0),
                ),
            ),
        ),
    )
    compiled = compile_scenario(doubled, deployment, salt=0)
    per_vector = [v.attack_times for v in compiled.vectors]
    overlap = set(per_vector[0]) & set(per_vector[1])
    assert overlap, "0.8 + 0.8 fractions must overlap somewhere"
    for node in overlap:
        row = compiled.schedule.attack_times[node]
        assert np.array_equal(row, np.sort(row))
        assert len(row) == len(per_vector[0][node]) + len(per_vector[1][node])
    total = sum(v.total_attack_packets for v in compiled.vectors)
    assert compiled.schedule.total_attack_packets == total


def test_without_targets_removes_only_those_rows(spec, deployment):
    schedule = compile_scenario(spec, deployment, salt=0).schedule
    targets = schedule.attack_targets
    assert len(targets) >= 2
    removed = targets[:1]
    pruned = schedule.without_targets(removed)
    assert pruned.attack_targets == tuple(
        node for node in targets if node not in removed
    )
    for node in pruned.attack_targets:
        assert np.array_equal(
            pruned.attack_times[node], schedule.attack_times[node]
        )
    assert pruned.surge_sources == schedule.surge_sources


def test_fingerprint_is_stable_and_sensitive(spec, deployment):
    one = compile_scenario(spec, deployment, salt=0).schedule
    two = compile_scenario(spec, deployment, salt=0).schedule
    assert one.fingerprint() == two.fingerprint()
    assert (
        compile_scenario(spec, deployment, salt=1).schedule.fingerprint()
        != one.fingerprint()
    )
    assert one.without_targets(one.attack_targets[:1]).fingerprint() != one.fingerprint()


def test_empty_schedule_is_benign():
    schedule = InjectionSchedule(attack_times={})
    assert schedule.attack_targets == ()
    assert schedule.total_attack_packets == 0
    assert not schedule.surge_sources
    assert schedule.without_targets([1, 2]).attack_targets == ()


def test_phase_windows_bound_vector_times(deployment):
    spec = tiny_spec(
        phases=(
            PhaseSpec(
                "only",
                3.0,
                5.0,
                vectors=(PulsingFlood(layer=1, fraction=0.5, rate=200.0),),
            ),
        )
    )
    schedule = compile_scenario(spec, deployment, salt=0).schedule
    for times in schedule.attack_times.values():
        assert (times > 3.0).all() and (times < 8.0).all()
