"""The sweep and design-space layers, which evaluate whole grids in one
batch, must agree with a per-point ``evaluate`` loop."""

from __future__ import annotations

import dataclasses
import math

from repro.core import OneBurstAttack, SOSArchitecture, SuccessiveAttack, evaluate
from repro.core.design_space import enumerate_designs, evaluate_designs
from repro.experiments.sweep import architecture_sweep, attack_sweep, grid_sweep

TOLERANCE = 1e-12

ARCH = SOSArchitecture(layers=4, mapping="one-to-two")
SUCCESSIVE = SuccessiveAttack(
    break_in_budget=200, congestion_budget=2000, rounds=3, prior_knowledge=0.2
)


def _assert_close(vector_values, scalar_values):
    assert len(vector_values) == len(scalar_values)
    for vector_value, scalar_value in zip(vector_values, scalar_values):
        if math.isnan(scalar_value):
            assert math.isnan(vector_value)
        else:
            assert abs(vector_value - scalar_value) <= TOLERANCE


class TestSweepEquivalence:
    def test_attack_sweep(self):
        values = [0, 100, 500, 1000, 2000]
        fast = attack_sweep(ARCH, SUCCESSIVE, "break_in_budget", values)
        slow = [
            evaluate(
                ARCH, dataclasses.replace(SUCCESSIVE, break_in_budget=value)
            ).p_s
            for value in values
        ]
        _assert_close(fast.p_s, slow)

    def test_architecture_sweep(self):
        values = [1, 2, 3, 5, 8]
        fast = architecture_sweep(ARCH, SUCCESSIVE, "layers", values)
        slow = [
            evaluate(dataclasses.replace(ARCH, layers=value), SUCCESSIVE).p_s
            for value in values
        ]
        _assert_close(fast.p_s, slow)

    def test_grid_sweep(self):
        burst = OneBurstAttack(break_in_budget=200, congestion_budget=2000)
        layers, budgets = [1, 3, 5], [0, 2000, 6000]
        fast = grid_sweep(
            ARCH, burst, "layers", layers, "congestion_budget", budgets
        )
        slow = [
            [
                evaluate(
                    dataclasses.replace(ARCH, layers=rows),
                    dataclasses.replace(burst, congestion_budget=budget),
                ).p_s
                for budget in budgets
            ]
            for rows in layers
        ]
        assert fast.row_values == tuple(layers)
        assert fast.column_values == tuple(budgets)
        assert len(fast.p_s) == len(slow)
        for fast_row, slow_row in zip(fast.p_s, slow):
            _assert_close(fast_row, slow_row)


class TestDesignSpaceEquivalence:
    def test_evaluate_designs(self):
        designs = enumerate_designs(layers=range(1, 5))
        scenarios = {
            "burst": OneBurstAttack(break_in_budget=200, congestion_budget=2000),
            "successive": SUCCESSIVE,
        }
        scores = evaluate_designs(designs, scenarios, aggregate="min")
        assert len(scores) == len(designs)
        aggregates = [score.aggregate for score in scores]
        assert aggregates == sorted(aggregates, reverse=True)
        for score in scores:
            slow = {
                name: evaluate(score.architecture, attack).p_s
                for name, attack in scenarios.items()
            }
            assert abs(score.aggregate - min(slow.values())) <= TOLERANCE
            for name in scenarios:
                assert abs(score.per_scenario[name] - slow[name]) <= TOLERANCE
