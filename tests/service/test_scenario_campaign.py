"""Scenario-backed campaign jobs: validation, execution, cancellation."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.scenarios.runner import run_scenario
from repro.service.jobs import canonical_key, execute_job, validate_payload

PAYLOAD = {
    "scenario": "stealth-lowrate",
    "mode": "none",
    "phases": 1,
}


class TestValidation:
    def test_valid_scenario_campaign_passes(self):
        validate_payload("campaign", dict(PAYLOAD))
        validate_payload(
            "campaign",
            {
                "scenario": "flash-crowd",
                "mode": "detected",
                "phases": 2,
                "tier": "numpy",
                "seed": 7,
            },
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ServiceError, match="scenario"):
            validate_payload("campaign", {**PAYLOAD, "scenario": "nope"})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"mode": "bogus"}, "mode"),
            ({"phases": 0}, "phases"),
            ({"phases": 99}, "phases"),
            ({"phases": True}, "phases"),
            # The retired engine knob is an unknown field now.
            ({"engine": "warp"}, "engine"),
            ({"tier": "gpu"}, "tier"),
            ({"seed": -1}, "seed"),
            ({"seed": True}, "seed"),
            ({"unknown_knob": 1}, "unknown"),
        ],
    )
    def test_bad_knobs_rejected(self, overrides, match):
        with pytest.raises(ServiceError, match=match):
            validate_payload("campaign", {**PAYLOAD, **overrides})

    def test_scenario_branch_skips_classic_requirements(self):
        # No architecture/attack/trials/seed required when a scenario
        # names the whole campaign.
        validate_payload("campaign", dict(PAYLOAD))


class TestCanonicalKey:
    def test_execution_knobs_do_not_change_the_key(self):
        with_knobs = {**PAYLOAD, "deadline_ms": 250.0, "priority": "batch"}
        assert canonical_key("campaign", dict(PAYLOAD)) == canonical_key(
            "campaign", with_knobs
        )

    def test_scenario_and_knobs_change_the_key(self):
        assert canonical_key("campaign", dict(PAYLOAD)) != canonical_key(
            "campaign", {**PAYLOAD, "scenario": "flash-crowd"}
        )
        assert canonical_key("campaign", dict(PAYLOAD)) != canonical_key(
            "campaign", {**PAYLOAD, "phases": 2}
        )


class TestExecution:
    def test_matches_direct_run_scenario(self):
        result = execute_job("campaign", dict(PAYLOAD))
        direct = run_scenario("stealth-lowrate", mode="none", phases=1)
        assert result == direct.to_dict()
        assert result["scenario"] == "stealth-lowrate"

    def test_defaults_to_detected_mode_three_phases(self):
        result = execute_job("campaign", {"scenario": "stealth-lowrate"})
        assert result["mode"] == "detected"
        assert result["phases"] == 3

    def test_abort_check_cancels_between_phases(self):
        calls = []

        def abort() -> bool:
            calls.append(True)
            return len(calls) >= 2

        from repro.errors import CampaignInterrupted

        with pytest.raises(CampaignInterrupted, match="cancelled"):
            execute_job(
                "campaign",
                {**PAYLOAD, "phases": 3},
                abort_check=abort,
            )
        assert len(calls) == 2
