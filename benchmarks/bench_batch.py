"""Vectorized batch evaluation vs the scalar per-point loop.

A 1000-point ``grid_sweep`` (8 layer counts x 125 break-in budgets under
the successive attack) is the acceptance workload: the batched sweep
must be >= 5x faster than a per-point ``evaluate`` loop over the same
grid with results equal to within 1e-12 (they are typically
bit-identical — the batch kernels replicate the scalar operation order).
"""

from __future__ import annotations

import dataclasses
import time

from repro.core import SOSArchitecture, SuccessiveAttack, evaluate
from repro.experiments.sweep import grid_sweep

BASE_ARCH = SOSArchitecture(layers=4, mapping="one-to-two")
BASE_ATTACK = SuccessiveAttack(
    break_in_budget=200, congestion_budget=2000, rounds=3, prior_knowledge=0.2
)
LAYER_VALUES = list(range(1, 9))
BUDGET_VALUES = [round(i * 3000 / 124, 3) for i in range(125)]


def _sweep():
    return grid_sweep(
        BASE_ARCH,
        BASE_ATTACK,
        "layers",
        LAYER_VALUES,
        "break_in_budget",
        BUDGET_VALUES,
    ).p_s


def _scalar_grid():
    """The same grid, one ``evaluate`` call per point."""
    return [
        [
            evaluate(
                dataclasses.replace(BASE_ARCH, layers=layers),
                dataclasses.replace(BASE_ATTACK, break_in_budget=budget),
            ).p_s
            for budget in BUDGET_VALUES
        ]
        for layers in LAYER_VALUES
    ]


def test_grid_sweep_1000pt_vectorized(benchmark):
    grid = benchmark(_sweep)
    assert sum(len(row) for row in grid) == 1000


def test_grid_sweep_1000pt_scalar(benchmark):
    grid = benchmark.pedantic(_scalar_grid, rounds=1, iterations=1)
    assert sum(len(row) for row in grid) == 1000


def test_vectorized_5x_faster_and_equal():
    start = time.perf_counter()
    scalar = _scalar_grid()
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = _sweep()
    vectorized_seconds = time.perf_counter() - start

    assert len(scalar) == len(vectorized) == len(LAYER_VALUES)
    for scalar_row, vector_row in zip(scalar, vectorized):
        assert len(scalar_row) == len(vector_row) == len(BUDGET_VALUES)
        for scalar_value, vector_value in zip(scalar_row, vector_row):
            assert abs(scalar_value - vector_value) <= 1e-12

    speedup = scalar_seconds / vectorized_seconds
    assert speedup >= 5.0, (
        f"vectorized grid_sweep speedup {speedup:.1f}x below the 5x "
        f"criterion (scalar {scalar_seconds:.3f}s, vectorized "
        f"{vectorized_seconds:.3f}s)"
    )
