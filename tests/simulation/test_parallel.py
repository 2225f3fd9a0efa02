"""Process-parallel Monte Carlo: bit-identity, checkpoints, isolation.

The estimator pre-spawns every trial's SeedSequence in the parent and
aggregates in trial order, so any worker count must reproduce the serial
estimate bit for bit — including through checkpoint/resume, an abort
between pool chunks, and in the presence of poisoned trials.
"""

from __future__ import annotations

import itertools
import json
import time

import pytest

from repro.core import OneBurstAttack, SOSArchitecture
from repro.errors import CampaignInterrupted, SimulationError
from repro.perf.parallel import chunked, resolve_workers
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.simulation.monte_carlo import (
    MonteCarloConfig,
    MonteCarloEstimator,
    estimate_ps,
)
from tests.resilience.test_checkpoint_resume import FlakyAttacker

ARCH = SOSArchitecture(
    layers=2, mapping="one-to-two", total_overlay_nodes=400, sos_nodes=40,
    filters=4,
)
ATTACK = OneBurstAttack(break_in_budget=20, congestion_budget=80)
TRIALS = 12


def _config(**overrides):
    return MonteCarloConfig(
        trials=overrides.pop("trials", TRIALS),
        clients_per_trial=3,
        seed=overrides.pop("seed", 17),
        **overrides,
    )


class TestBitIdentity:
    def test_workers_match_serial_exactly(self):
        serial = MonteCarloEstimator(_config()).estimate(ARCH, ATTACK)
        # The 12 trials go out in chunks of 2 over 2 workers and of 1
        # over 3 or 4.
        for workers in (2, 3, 4):
            parallel = MonteCarloEstimator(_config(workers=workers)).estimate(
                ARCH, ATTACK
            )
            assert parallel == serial

    def test_estimate_ps_accepts_workers(self):
        serial = estimate_ps(ARCH, ATTACK, trials=8, seed=3)
        parallel = estimate_ps(ARCH, ATTACK, trials=8, seed=3, workers=2)
        assert parallel == serial

    def test_workers_zero_resolves_to_cpu_count(self):
        config = _config(workers=0)
        assert resolve_workers(config.workers) >= 1
        result = MonteCarloEstimator(config).estimate(ARCH, ATTACK)
        assert result == MonteCarloEstimator(_config()).estimate(ARCH, ATTACK)


class TestParallelCheckpoint:
    def test_parallel_resume_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        uninterrupted = MonteCarloEstimator(_config()).estimate(ARCH, ATTACK)

        first = MonteCarloEstimator(_config(workers=2, checkpoint_path=path))
        first._attacker = FlakyAttacker(fail_on={1})
        partial = first.estimate(ARCH, ATTACK)
        assert partial.failed_trials >= 1

        resumed = MonteCarloEstimator(
            _config(workers=4, checkpoint_path=path)
        ).estimate(ARCH, ATTACK)
        assert resumed.failed_trials == 0
        assert resumed == uninterrupted

    def test_checkpoint_written_under_serial_resumes_under_workers(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        MonteCarloEstimator(_config(checkpoint_path=path)).estimate(ARCH, ATTACK)
        resumed = MonteCarloEstimator(_config(workers=2, checkpoint_path=path))
        resumed._attacker = FlakyAttacker(fail_on=set(range(100)))
        result = resumed.estimate(ARCH, ATTACK)
        # Every trial was checkpointed: no worker ever ran the attacker.
        assert result.failed_trials == 0

    @pytest.mark.parametrize("resume_workers", [1, 2])
    def test_abort_between_chunks_keeps_every_finished_trial(
        self, tmp_path, resume_workers
    ):
        path = str(tmp_path / "campaign.json")
        trials = 24
        uninterrupted = MonteCarloEstimator(_config(trials=trials)).estimate(
            ARCH, ATTACK
        )
        polls = []

        def abort_after_first_chunk():
            polls.append(None)
            return len(polls) > 1

        with pytest.raises(CampaignInterrupted):
            MonteCarloEstimator(
                _config(trials=trials, workers=2, checkpoint_path=path)
            ).estimate(ARCH, ATTACK, abort_check=abort_after_first_chunk)
        assert len(polls) == 2

        # The checkpoint holds the first chunk plus every chunk a worker
        # had already started: whole chunks, a prefix of the trial order.
        with open(path, encoding="utf-8") as handle:
            kept = sorted(int(trial) for trial in json.load(handle)["trials"])
        sizes = [len(chunk) for chunk in chunked(list(range(trials)), 2)]
        assert kept == list(range(len(kept)))
        assert len(kept) in set(itertools.accumulate(sizes))

        resumed = MonteCarloEstimator(
            _config(trials=trials, workers=resume_workers, checkpoint_path=path)
        ).estimate(ARCH, ATTACK)
        assert resumed == uninterrupted

    def test_abort_keeps_chunks_a_worker_already_ran(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        polls = []

        def abort_late():
            polls.append(None)
            if len(polls) == 1:
                return False
            # Give the second worker time to finish the chunk it took
            # when the pool started: the abort must not drop it.
            time.sleep(0.5)
            return True

        with pytest.raises(CampaignInterrupted):
            MonteCarloEstimator(
                _config(trials=24, workers=2, checkpoint_path=path)
            ).estimate(ARCH, ATTACK, abort_check=abort_late)
        with open(path, encoding="utf-8") as handle:
            kept = len(json.load(handle)["trials"])
        first_chunk = len(chunked(list(range(24)), 2)[0])
        assert kept > first_chunk


class TestParallelErrorIsolation:
    def test_poisoned_trials_recorded_not_fatal(self):
        est = MonteCarloEstimator(_config(workers=2))
        # Worker-side attacker copies each fail their first execution, so
        # at least one (up to `workers`) trials die; the campaign survives.
        est._attacker = FlakyAttacker(fail_on={0})
        result = est.estimate(ARCH, ATTACK)
        assert 1 <= result.failed_trials <= 2
        assert result.trials == TRIALS - result.failed_trials
        assert len(est.last_failures) == result.failed_trials
        assert all("injected fault" in error for _, error in est.last_failures)
        # Failures are reported in trial order even when chunks complete
        # out of order.
        indices = [trial for trial, _ in est.last_failures]
        assert indices == sorted(indices)

    def test_isolation_disabled_propagates_worker_error(self):
        est = MonteCarloEstimator(_config(workers=2, error_isolation=False))
        est._attacker = FlakyAttacker(fail_on=set(range(100)))
        with pytest.raises(RuntimeError, match="injected fault"):
            est.estimate(ARCH, ATTACK)

    def test_all_trials_failing_raises(self):
        est = MonteCarloEstimator(_config(trials=4, workers=2))
        est._attacker = FlakyAttacker(fail_on=set(range(100)))
        with pytest.raises(SimulationError, match="all 4 trials failed"):
            est.estimate(ARCH, ATTACK)


class TestCheckpointBatching:
    def test_saves_are_batched(self, tmp_path, monkeypatch):
        saves = []
        original_save = CampaignCheckpoint.save

        def counting_save(self):
            saves.append(len(self.trials))
            original_save(self)

        monkeypatch.setattr(CampaignCheckpoint, "save", counting_save)
        path = str(tmp_path / "campaign.json")
        MonteCarloEstimator(
            _config(trials=10, checkpoint_path=path, checkpoint_every=4)
        ).estimate(ARCH, ATTACK)
        # 10 trials at checkpoint_every=4: saves after trials 4 and 8,
        # plus the final flush of the remaining 2 — not one per trial.
        assert saves == [4, 8, 10]

    def test_checkpoint_every_one_saves_per_trial(self, tmp_path, monkeypatch):
        saves = []
        original_save = CampaignCheckpoint.save

        def counting_save(self):
            saves.append(len(self.trials))
            original_save(self)

        monkeypatch.setattr(CampaignCheckpoint, "save", counting_save)
        path = str(tmp_path / "campaign.json")
        MonteCarloEstimator(
            _config(trials=5, checkpoint_path=path, checkpoint_every=1)
        ).estimate(ARCH, ATTACK)
        assert saves == [1, 2, 3, 4, 5]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": -1},
            {"checkpoint_every": 0},
        ],
    )
    def test_invalid_execution_knobs_rejected(self, overrides):
        with pytest.raises(SimulationError):
            _config(**overrides)
