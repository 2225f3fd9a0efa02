"""Tests for design-space search and the trade-off frontier."""

from __future__ import annotations

import pytest

from repro.core import OneBurstAttack, SuccessiveAttack
from repro.core.design_space import (
    DesignScore,
    enumerate_designs,
    evaluate_designs,
    tradeoff_frontier,
)
from repro.errors import ConfigurationError


class TestEnumerate:
    def test_grid_size(self):
        designs = enumerate_designs(layers=(1, 2, 3), mappings=("one-to-one",))
        assert len(designs) == 3

    def test_infeasible_points_skipped(self):
        # 20 SOS nodes cannot feed an increasing distribution at L=7 (the
        # second layer would hold < 1 node), but the even point survives.
        designs = enumerate_designs(
            layers=(7,),
            mappings=("one-to-one",),
            distributions=("increasing", "even"),
            sos_nodes=20,
        )
        assert len(designs) == 1
        assert designs[0].distribution == "even"

    def test_all_points_infeasible_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            enumerate_designs(
                layers=(7,),
                mappings=("one-to-one",),
                distributions=("increasing",),
                sos_nodes=20,
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_designs(layers=())


class TestEvaluate:
    def test_scores_sorted_descending(self):
        designs = enumerate_designs(layers=(1, 3, 5), mappings=("one-to-two",))
        scores = evaluate_designs(designs, {"default": SuccessiveAttack()})
        values = [score.aggregate for score in scores]
        assert values == sorted(values, reverse=True)

    def test_min_aggregate_is_worst_case(self):
        designs = enumerate_designs(layers=(3,), mappings=("one-to-two",))
        scenarios = {
            "congestion": OneBurstAttack(0, 6000),
            "break_in": SuccessiveAttack(break_in_budget=2000),
        }
        [score] = evaluate_designs(designs, scenarios, aggregate="min")
        assert score.aggregate == min(score.per_scenario.values())

    def test_mean_aggregate_with_weights(self):
        designs = enumerate_designs(layers=(3,), mappings=("one-to-two",))
        scenarios = {
            "a": OneBurstAttack(0, 2000),
            "b": OneBurstAttack(0, 6000),
        }
        [score] = evaluate_designs(
            designs, scenarios, aggregate="mean", weights={"a": 3.0, "b": 1.0}
        )
        expected = (3 * score.per_scenario["a"] + score.per_scenario["b"]) / 4
        assert score.aggregate == pytest.approx(expected)

    def test_label_mentions_design_features(self):
        designs = enumerate_designs(layers=(4,), mappings=("one-to-two",))
        scores = evaluate_designs(designs, {"d": SuccessiveAttack()})
        assert "L=4" in scores[0].label

    def test_validation(self):
        designs = enumerate_designs(layers=(3,), mappings=("one-to-one",))
        with pytest.raises(ConfigurationError):
            evaluate_designs(designs, {})
        with pytest.raises(ConfigurationError):
            evaluate_designs(designs, {"d": SuccessiveAttack()}, aggregate="max")
        with pytest.raises(ConfigurationError):
            evaluate_designs(
                designs,
                {"d": SuccessiveAttack()},
                aggregate="mean",
                weights={"d": 0.0},
            )


def best_on_default_grid(scenarios):
    """The top-ranked design of the default grid."""
    return evaluate_designs(enumerate_designs(), scenarios)[0]


class TestBestDesign:
    def test_paper_headline_best_design(self):
        # §3.2.3: L=4 with one-to-two wins the Fig. 6(a) grid.
        score = best_on_default_grid({"default": SuccessiveAttack()})
        assert isinstance(score, DesignScore)
        assert score.architecture.mapping_policy.label == "one-to-2"
        assert score.architecture.layers in (3, 4, 5)

    def test_pure_congestion_prefers_shallow_high_degree(self):
        score = best_on_default_grid(
            {"congestion": OneBurstAttack(break_in_budget=0, congestion_budget=6000)}
        )
        assert score.architecture.mapping_policy.label in ("one-to-all", "one-to-half")
        assert score.aggregate == pytest.approx(1.0, abs=1e-6)


class TestFrontier:
    def test_frontier_is_pareto(self):
        designs = enumerate_designs(layers=(1, 2, 3, 4, 5))
        frontier = tradeoff_frontier(designs)
        for p in frontier:
            for q in frontier:
                strictly_better = (
                    q.break_in_resilience > p.break_in_resilience
                    and q.congestion_resilience >= p.congestion_resilience
                ) or (
                    q.break_in_resilience >= p.break_in_resilience
                    and q.congestion_resilience > p.congestion_resilience
                )
                assert not strictly_better

    def test_frontier_sorted_by_break_in_axis(self):
        designs = enumerate_designs(layers=(1, 2, 3, 4, 5))
        frontier = tradeoff_frontier(designs)
        values = [p.break_in_resilience for p in frontier]
        assert values == sorted(values)

    def test_tradeoff_exists(self):
        # No single design tops both axes: the paper's core message.
        designs = enumerate_designs(layers=range(1, 9))
        frontier = tradeoff_frontier(designs)
        assert len(frontier) >= 2
        best_break_in = max(p.break_in_resilience for p in frontier)
        best_congestion = max(p.congestion_resilience for p in frontier)
        assert not any(
            p.break_in_resilience == best_break_in
            and p.congestion_resilience == best_congestion
            for p in frontier
        )
