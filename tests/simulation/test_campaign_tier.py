"""The campaign's ``P_S`` moments: one Welford fold, same bits on every tier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSArchitecture, SuccessiveAttack
from repro.perf.compiled import available_tiers, get_kernels
from repro.repair import NO_REPAIR
from repro.simulation.campaign import run_campaign

ARCH = SOSArchitecture(
    layers=3,
    mapping="one-to-two",
    total_overlay_nodes=1000,
    sos_nodes=45,
    filters=5,
)
ATTACK = SuccessiveAttack(
    break_in_budget=80, congestion_budget=300, rounds=3, prior_knowledge=0.3
)


def test_reports_are_bit_identical_across_tiers():
    # The campaign folds with the numpy set's Welford; every kernel set's
    # fold of the same series must land on the identical moments.
    report = run_campaign(ARCH, ATTACK, NO_REPAIR, seed=11)
    values = np.asarray(report.p_s, dtype=np.float64)
    for tier in available_tiers():
        count, mean, m2, _ = get_kernels(tier).welford(
            values, 0, 0.0, 0.0, float("-inf")
        )
        assert (mean, m2 / count) == (report.p_s_mean, report.p_s_variance)


def test_p_s_moments_match_the_trajectory():
    report = run_campaign(ARCH, ATTACK, NO_REPAIR, seed=11)
    mean = sum(report.p_s) / len(report.p_s)
    assert report.p_s_mean == pytest.approx(mean)
    variance = sum((p - report.p_s_mean) ** 2 for p in report.p_s) / len(
        report.p_s
    )
    assert report.p_s_variance == pytest.approx(variance)
    assert report.p_s_variance > 0.0  # the attack visibly moves p_s
