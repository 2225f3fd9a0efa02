"""Tests for the programmable sweep API.

A one-dimensional sweep is a grid with a one-value axis, read through
its row or column view.
"""

from __future__ import annotations

import pytest

from repro.core import OneBurstAttack, SOSArchitecture, SuccessiveAttack, evaluate
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.sweep import grid_sweep


def arch(**kwargs):
    defaults = dict(layers=4, mapping="one-to-two")
    defaults.update(kwargs)
    return SOSArchitecture(**defaults)


def attack_row(architecture, attack, parameter, values):
    """Sweep one attack parameter: the one row of a one-row grid."""
    return grid_sweep(
        architecture, attack, "layers", [architecture.layers], parameter, values
    ).row(architecture.layers)


def design_column(architecture, attack, parameter, values):
    """Sweep one design parameter: the one column of a one-column grid."""
    budget = attack.break_in_budget
    return grid_sweep(
        architecture, attack, parameter, values, "break_in_budget", [budget]
    ).column(budget)


class TestAttackSweep:
    def test_values_evaluated_pointwise(self):
        result = attack_row(
            arch(), SuccessiveAttack(), "break_in_budget", [0, 200, 800]
        )
        for value, p_s in zip(result.values, result.p_s):
            expected = evaluate(
                arch(), SuccessiveAttack(break_in_budget=value)
            ).p_s
            assert p_s == pytest.approx(expected)

    def test_rounds_sweep_decreasing(self):
        result = attack_row(arch(), SuccessiveAttack(), "rounds", [1, 2, 3, 4])
        assert all(b <= a + 1e-9 for a, b in zip(result.p_s, result.p_s[1:]))

    def test_works_for_one_burst(self):
        result = attack_row(
            arch(), OneBurstAttack(), "congestion_budget", [0, 4000]
        )
        assert result.p_s[0] >= result.p_s[1]

    def test_unknown_parameter_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="break_in_budget"):
            attack_row(arch(), SuccessiveAttack(), "bandwidth", [1])

    def test_empty_values_rejected(self):
        with pytest.raises(ExperimentError):
            attack_row(arch(), SuccessiveAttack(), "rounds", [])

    def test_argmax_and_table(self):
        result = attack_row(arch(), SuccessiveAttack(), "rounds", [1, 3])
        assert result.argmax() == 1


class TestArchitectureSweep:
    def test_layers_sweep(self):
        result = design_column(
            arch(), SuccessiveAttack(), "layers", [2, 4, 6]
        )
        assert len(result.p_s) == 3
        assert result.parameter == "layers"

    def test_mapping_sweep(self):
        result = design_column(
            arch(),
            OneBurstAttack(break_in_budget=0, congestion_budget=6000),
            "mapping",
            ["one-to-one", "one-to-half", "one-to-all"],
        )
        assert result.p_s[0] <= result.p_s[1] <= result.p_s[2]

    def test_infeasible_point_raises(self):
        with pytest.raises(ConfigurationError):
            design_column(
                arch(sos_nodes=20), SuccessiveAttack(), "layers", [30]
            )


class TestGridSweep:
    @pytest.fixture(scope="class")
    def grid(self):
        return grid_sweep(
            arch(),
            SuccessiveAttack(),
            "layers",
            [2, 4, 6],
            "break_in_budget",
            [0, 200, 800],
        )

    def test_shape(self, grid):
        assert len(grid.p_s) == 3
        assert all(len(row) == 3 for row in grid.p_s)

    def test_row_and_column_views_consistent(self, grid):
        row = grid.row(4)
        column = grid.column(200)
        assert row.p_s[1] == column.p_s[1]  # the (4, 200) cell

    def test_no_break_in_column_is_best(self, grid):
        best = max(v for row in grid.p_s for v in row)
        assert max(grid.column(0).p_s) == best

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            grid_sweep(arch(), SuccessiveAttack(), "layers", [], "rounds", [1])
