"""Each output check passes the program's real output and fires on a
tampered copy. Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses

import pytest

import checks
import workloads


@pytest.fixture(scope="module")
def flood():
    """The flood-1e6 workload after set-up, with one op's report."""
    workload = workloads.FloodWorkload(7)
    workload.setup(None)
    return workload, workload.op(0)


def test_flood_conservation_fires_on_lost_packet(flood):
    _, report = flood
    assert checks.flood_report(report) is None
    tampered = dataclasses.replace(report, delivered=report.delivered + 1)
    assert "conservation" in checks.flood_report(tampered)


def test_flood_band_fires_outside_band(flood):
    _, report = flood
    # Conservation still holds: every delivery moves into the drop count.
    starved = dataclasses.replace(
        report, delivered=0,
        dropped_at_congested=report.dropped_at_congested + report.delivered,
    )
    assert "band" in checks.flood_report(starved)


def test_flood_rerun_reproduces_and_fires_on_change(flood):
    workload, report = flood
    assert workload.finish({0: report}) == {}
    tampered = dataclasses.replace(report, max_latency=report.max_latency + 1.0)
    assert "reproduce" in workload.finish({0: tampered})[0]


def test_zoo_report_matches_compiled_tier_and_fires_on_change():
    from repro.scenarios.runner import run_scenario

    report = run_scenario("stealth-lowrate", mode="detected", phases=1, seed=5)
    reference = run_scenario(
        "stealth-lowrate", mode="detected", phases=1, seed=5, tier="compiled"
    )
    assert report.tier != reference.tier
    assert checks.zoo_report(report, reference) is None
    tampered = dataclasses.replace(report, recall=report.recall / 2)
    assert checks.zoo_report(tampered, reference) is not None


def test_mc_estimate_matches_serial_and_fires_on_change():
    from repro.core import SOSArchitecture, SuccessiveAttack
    from repro.simulation.monte_carlo import estimate_ps

    architecture = SOSArchitecture(
        layers=3, mapping="one-to-two", total_overlay_nodes=2000, sos_nodes=80
    )
    attack = SuccessiveAttack(break_in_budget=60, congestion_budget=400, rounds=3)
    kwargs = dict(trials=8, clients_per_trial=4, seed=9)
    parallel = estimate_ps(architecture, attack, workers=2, **kwargs)
    serial = estimate_ps(architecture, attack, workers=1, **kwargs)
    assert checks.mc_estimate(parallel, serial) is None
    tampered = dataclasses.replace(parallel, mean=parallel.mean + 1e-9)
    assert checks.mc_estimate(tampered, serial) is not None


def test_eval_answer_matches_model_and_fires_on_change():
    import random

    payload = workloads.eval_payload(random.Random(4), 77)
    reference = workloads.service_eval_reference(payload)
    assert checks.eval_answer(reference, reference) is None
    assert checks.eval_answer(reference + 1e-12, reference) is not None
    assert checks.eval_answer(None, reference) is not None
