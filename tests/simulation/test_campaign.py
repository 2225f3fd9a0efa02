"""Tests for the time-resolved campaign simulation."""

from __future__ import annotations

import math

import pytest

from repro.core import SOSArchitecture, SuccessiveAttack
from repro.errors import SimulationError
from repro.repair import NO_REPAIR, RepairPolicy
from repro.simulation.campaign import (
    CampaignConfig,
    CampaignReport,
    run_campaign,
)


def arch():
    return SOSArchitecture(
        layers=3,
        mapping="one-to-two",
        total_overlay_nodes=1000,
        sos_nodes=45,
        filters=5,
    )


ATTACK = SuccessiveAttack(
    break_in_budget=80, congestion_budget=300, rounds=3, prior_knowledge=0.3
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            CampaignConfig(round_interval=0)
        with pytest.raises(SimulationError):
            CampaignConfig(probes_per_sample=0)
        with pytest.raises(SimulationError):
            CampaignConfig(cooldown=-1)


class TestTimeline:
    @pytest.fixture(scope="class")
    def no_repair_report(self):
        return run_campaign(arch(), ATTACK, NO_REPAIR, seed=11)

    def test_healthy_before_first_round(self, no_repair_report):
        first_round = no_repair_report.round_times[0]
        for t, p in zip(no_repair_report.times, no_repair_report.p_s):
            if t < first_round:
                assert p == 1.0

    def test_rounds_happen_on_schedule(self, no_repair_report):
        assert len(no_repair_report.round_times) <= ATTACK.rounds
        intervals = [
            b - a
            for a, b in zip(
                no_repair_report.round_times, no_repair_report.round_times[1:]
            )
        ]
        assert all(i == pytest.approx(10.0) for i in intervals)

    def test_congestion_follows_break_in_phase(self, no_repair_report):
        assert not math.isnan(no_repair_report.congestion_time)
        assert no_repair_report.congestion_time > no_repair_report.round_times[-1]

    def test_attack_causes_visible_damage(self, no_repair_report):
        assert no_repair_report.minimum < 0.95
        assert no_repair_report.repairs_total == 0

    def test_damage_persists_without_repair(self, no_repair_report):
        after = [
            p
            for t, p in zip(no_repair_report.times, no_repair_report.p_s)
            if t > no_repair_report.congestion_time
        ]
        assert sum(after) / len(after) < 0.99

    def test_deterministic_under_seed(self):
        a = run_campaign(arch(), ATTACK, NO_REPAIR, seed=4)
        b = run_campaign(arch(), ATTACK, NO_REPAIR, seed=4)
        assert a.p_s == b.p_s
        assert a.round_times == b.round_times


class TestRepairRace:
    def test_repair_improves_trajectory(self):
        config = CampaignConfig(repair_interval=6.0)
        without = run_campaign(arch(), ATTACK, NO_REPAIR, config, seed=11)
        with_repair = run_campaign(
            arch(),
            ATTACK,
            RepairPolicy(detection_probability=0.8),
            config,
            seed=11,
        )
        assert with_repair.repairs_total > 0
        assert with_repair.final >= without.final - 0.05
        mean_without = sum(without.p_s) / len(without.p_s)
        mean_with = sum(with_repair.p_s) / len(with_repair.p_s)
        assert mean_with >= mean_without

    def test_slow_repair_still_recovers_eventually(self):
        config = CampaignConfig(repair_interval=15.0, cooldown=60.0)
        report = run_campaign(
            arch(),
            ATTACK,
            RepairPolicy(detection_probability=1.0),
            config,
            seed=11,
        )
        # Perfect detection: once scans run after the congestion phase,
        # the tail of the trajectory returns to full availability.
        assert report.p_s[-1] == 1.0
