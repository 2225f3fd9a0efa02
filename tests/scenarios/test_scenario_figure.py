"""scn-zoo experiment: matrix shape and claims."""

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


def test_scn_zoo_accepts_tier_override():
    # The runner's --tier compiled path; quick (1 phase).
    result = run_figure("scn-zoo", tier="compiled", phases=1)
    assert not result.failed_claims()
    assert "Vectorized fast engine, compiled tier." in result.notes
