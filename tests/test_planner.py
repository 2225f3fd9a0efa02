"""Tests for the defense planner."""

from __future__ import annotations

import pytest

from repro.core import SOSArchitecture, SuccessiveAttack, evaluate
from repro.core.budget import BreakInCampaign, CongestionCostModel
from repro.errors import ConfigurationError
from repro.planner import DefensePlan, plan_defense, required_detection
from repro.repair import analyze_successive_with_repair


def arch():
    return SOSArchitecture(layers=4, mapping="one-to-two")


class TestRequiredDetection:
    def test_zero_when_already_met(self):
        assert required_detection(arch(), SuccessiveAttack(), target_p_s=0.3) == 0.0

    def test_binary_search_hits_target(self):
        attack = SuccessiveAttack()
        rho = required_detection(arch(), attack, target_p_s=0.8)
        assert 0.0 < rho < 1.0
        achieved = analyze_successive_with_repair(
            arch(), attack, rho, final_scan=False
        ).p_s
        assert achieved >= 0.8
        # Tightness: a slightly weaker defender misses the target.
        weaker = analyze_successive_with_repair(
            arch(), attack, rho - 0.02, final_scan=False
        ).p_s
        assert weaker < 0.8

    def test_none_when_unachievable(self):
        # At the attack's peak the freshly-landed congestion wave bounds
        # what any defender can hold: perfect per-round detection still
        # leaves ~N_C random floods standing, so high targets are
        # deterministically unachievable.
        attack = SuccessiveAttack()
        ceiling = analyze_successive_with_repair(
            arch(), attack, 1.0, final_scan=False
        ).p_s
        assert ceiling < 0.9
        assert required_detection(arch(), attack, target_p_s=0.9) is None

    def test_post_attack_recovery_mode(self):
        # With the final scan included, perfect detection recovers fully.
        attack = SuccessiveAttack()
        rho = required_detection(
            arch(), attack, target_p_s=0.99, final_scan=True
        )
        assert rho is not None

    def test_monotone_in_target(self):
        attack = SuccessiveAttack()
        rho_low = required_detection(arch(), attack, target_p_s=0.65)
        rho_high = required_detection(arch(), attack, target_p_s=0.82)
        assert rho_low <= rho_high

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            required_detection(arch(), SuccessiveAttack(), target_p_s=1.5)
        with pytest.raises(ConfigurationError):
            required_detection(arch(), SuccessiveAttack(), 0.9, tolerance=0.5)


class TestPlanDefense:
    def test_paper_scale_plan(self):
        plan = plan_defense(attacker_bandwidth=380_000.0, target_p_s=0.8)
        assert isinstance(plan, DefensePlan)
        assert plan.attack.congestion_budget == 2000
        assert plan.attack.break_in_budget == 200
        assert plan.architecture.mapping_policy.label == "one-to-2"
        assert plan.needs_repair
        assert 0.0 < plan.required_detection < 1.0

    def test_overambitious_target_is_called_out(self):
        plan = plan_defense(attacker_bandwidth=380_000.0, target_p_s=0.97)
        assert not plan.achievable
        assert "UNACHIEVABLE" in plan.summary()

    def test_plan_consistency_with_direct_evaluation(self):
        plan = plan_defense(attacker_bandwidth=380_000.0)
        direct = evaluate(plan.architecture, plan.attack).p_s
        assert plan.unrepaired_p_s == pytest.approx(direct)

    def test_weak_attacker_needs_no_repair(self):
        plan = plan_defense(
            attacker_bandwidth=20_000.0,
            campaign=BreakInCampaign(attempts_per_hour=1, duration_hours=10),
            target_p_s=0.9,
        )
        assert plan.required_detection == 0.0
        assert not plan.needs_repair
        assert "met without repair" in plan.summary()

    def test_summary_mentions_key_numbers(self):
        plan = plan_defense(attacker_bandwidth=380_000.0, target_p_s=0.8)
        text = plan.summary()
        assert "N_C=2000" in text
        assert "recommended design" in text
        assert "detection >=" in text

    def test_stronger_attacker_demands_more_detection_same_design(self):
        # Across plans the recommended design adapts, so detection
        # requirements are not comparable; on a FIXED design they are.
        weak_attack = SuccessiveAttack(congestion_budget=2000)
        strong_attack = SuccessiveAttack(congestion_budget=5000)
        rho_weak = required_detection(arch(), weak_attack, target_p_s=0.7)
        rho_strong = required_detection(arch(), strong_attack, target_p_s=0.7)
        assert rho_strong is None or rho_weak is None or rho_strong >= rho_weak

    def test_design_adapts_to_stronger_attacker(self):
        weak = plan_defense(attacker_bandwidth=380_000.0, target_p_s=0.8)
        strong = plan_defense(attacker_bandwidth=1_000_000.0, target_p_s=0.8)
        assert strong.attack.congestion_budget > weak.attack.congestion_budget
        # The planner may switch designs; both plans must self-consistently
        # reach their targets when the required detection is applied.
        for plan in (weak, strong):
            if plan.achievable and plan.required_detection > 0:
                achieved = analyze_successive_with_repair(
                    plan.architecture, plan.attack, plan.required_detection,
                    final_scan=False,
                ).p_s
                assert achieved >= plan.target_p_s - 1e-6

    def test_custom_cost_model_changes_budgets(self):
        beefy = CongestionCostModel(node_capacity=1000.0)
        plan = plan_defense(attacker_bandwidth=380_000.0, cost_model=beefy)
        assert plan.attack.congestion_budget < 2000
