"""scn-zoo experiment: matrix shape and claims (both engines)."""

from __future__ import annotations

from repro.experiments.figures import REGISTRY, run_figure
from repro.scenarios.zoo import list_scenarios


def test_scn_zoo_is_registered():
    assert "scn-zoo" in REGISTRY


def test_scn_zoo_claims_pass_on_fast_engine():
    result = run_figure("scn-zoo")
    failed = result.failed_claims()
    assert not failed, "; ".join(claim.description for claim in failed)
    names = list_scenarios()
    assert len(result.x_values) == len(names)
    assert set(result.series) == {
        "final delivery (no repair)",
        "final delivery (detected)",
        "precision",
        "recall",
    }
    for name in names:
        assert name in result.notes


def test_scn_zoo_accepts_engine_and_tier_overrides():
    # The runner's --engine event / --tier compiled path; quick (1 phase).
    result = run_figure("scn-zoo", fast=False, tier="compiled", phases=1)
    assert not result.failed_claims()
    assert "Event-driven engine" in result.notes
    assert "compiled tier" in result.notes
