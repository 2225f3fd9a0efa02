"""Corrupt-checkpoint recovery: quarantine and restart, never crash.

A process killed mid-write (before the atomic rename), a disk-full
partial write, or a stale pre-versioning format must not brick the
campaign: ``CampaignCheckpoint.load_or_create`` quarantines the bad file
to ``<path>.corrupt``, warns about degraded coverage, and starts fresh.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import OneBurstAttack, SOSArchitecture
from repro.errors import SimulationError
from repro.resilience.checkpoint import CampaignCheckpoint, fingerprint
from repro.simulation.monte_carlo import MonteCarloConfig, MonteCarloEstimator

FP = fingerprint({"experiment": "corruption-suite"})


def _expect_fresh_with_quarantine(path):
    with pytest.warns(RuntimeWarning, match="quarantined"):
        checkpoint = CampaignCheckpoint.load_or_create(str(path), FP)
    assert checkpoint.trials == {}
    assert not path.exists()
    assert (path.parent / f"{path.name}.corrupt").exists()
    return checkpoint


class TestCorruptCheckpointRecovery:
    def test_truncated_json_starts_fresh(self, tmp_path):
        path = tmp_path / "campaign.json"
        good = CampaignCheckpoint(str(path), FP)
        good.record_success(0, 0.5, {1: 2})
        good.save()
        # Simulate a partial write: keep only the first half of the bytes.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        _expect_fresh_with_quarantine(path)

    def test_non_json_garbage_starts_fresh(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_bytes(b"\x00\xffnot json at all")
        _expect_fresh_with_quarantine(path)

    def test_json_missing_trials_key_starts_fresh(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"fingerprint": FP}), encoding="utf-8")
        _expect_fresh_with_quarantine(path)

    def test_json_with_wrong_shape_starts_fresh(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps({"fingerprint": FP, "trials": ["not", "a", "dict"]}),
            encoding="utf-8",
        )
        _expect_fresh_with_quarantine(path)

    def test_non_integer_trial_keys_start_fresh(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps({"fingerprint": FP, "trials": {"seven": {"p": 1.0}}}),
            encoding="utf-8",
        )
        _expect_fresh_with_quarantine(path)

    def test_quarantined_file_preserves_bytes_for_forensics(self, tmp_path):
        path = tmp_path / "campaign.json"
        payload = b"{truncated"
        path.write_bytes(payload)
        _expect_fresh_with_quarantine(path)
        assert (tmp_path / "campaign.json.corrupt").read_bytes() == payload

    def test_fingerprint_mismatch_still_raises(self, tmp_path):
        """Only *unparseable* files are quarantined; a valid checkpoint for
        a different experiment is a caller error and must stay loud."""
        path = tmp_path / "campaign.json"
        other = CampaignCheckpoint(str(path), fingerprint({"other": 1}))
        other.record_success(0, 1.0, {})
        other.save()
        with pytest.raises(SimulationError, match="different experiment"):
            CampaignCheckpoint.load_or_create(str(path), FP)
        assert path.exists()  # untouched, not quarantined

    def test_save_after_recovery_overwrites_cleanly(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_bytes(b"garbage")
        checkpoint = _expect_fresh_with_quarantine(path)
        checkpoint.record_success(2, 0.25, {1: 1})
        checkpoint.save()
        reloaded = CampaignCheckpoint.load_or_create(str(path), FP)
        assert reloaded.completed(2) == {"p": 0.25, "bad": {"1": 1}}


#: Trial records that parse as JSON but cannot be a trial's outcome; each
#: replaces trial 0 of an otherwise valid checkpoint.
MALFORMED_RECORDS = {
    "p-not-a-number": {"p": "abc", "bad": {"1": 1}},
    "p-missing": {"bad": {"1": 1}},
    "p-out-of-range": {"p": 1.5, "bad": {"1": 1}},
    "record-is-a-list": [0.5, {"1": 1}],
    "layer-not-an-int": {"p": 0.5, "bad": {"x": 1}},
    "negative-count": {"p": 0.5, "bad": {"1": -5}},
}


class TestEstimatorSurvivesCorruption:
    @pytest.mark.parametrize("case", ["truncated", *MALFORMED_RECORDS])
    def test_estimate_with_corrupt_checkpoint_matches_clean_run(
        self, tmp_path, case
    ):
        """End to end: a corrupt checkpoint degrades to a fresh campaign
        whose aggregates are bit-identical to a never-checkpointed run."""
        arch = SOSArchitecture(
            layers=2,
            mapping="one-to-two",
            total_overlay_nodes=300,
            sos_nodes=30,
            filters=3,
        )
        attack = OneBurstAttack(break_in_budget=20, congestion_budget=60)
        baseline = MonteCarloEstimator(
            MonteCarloConfig(trials=6, clients_per_trial=3, seed=11)
        ).estimate(arch, attack)

        path = tmp_path / "campaign.json"
        config = MonteCarloConfig(
            trials=6, clients_per_trial=3, seed=11, checkpoint_path=str(path)
        )
        if case == "truncated":
            path.write_bytes(b'{"fingerprint": "...')  # killed mid-write
        else:
            MonteCarloEstimator(config).estimate(arch, attack)
            state = json.loads(path.read_text(encoding="utf-8"))
            state["trials"]["0"] = MALFORMED_RECORDS[case]
            path.write_text(json.dumps(state), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            recovered = MonteCarloEstimator(config).estimate(arch, attack)
        assert recovered.mean == baseline.mean
        assert recovered.mean_bad_per_layer == baseline.mean_bad_per_layer
        assert os.path.exists(f"{path}.corrupt")
