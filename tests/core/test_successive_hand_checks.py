"""Hand-computed verification of the successive model's equations.

Each test evaluates one of the paper's Eqs. (10)-(20) by hand at a small
parameter point and compares against the implementation's round state —
the same style of check `test_one_burst.py` applies to Eqs. (5)-(7).
"""

from __future__ import annotations

import pytest

from repro.core import SOSArchitecture, SuccessiveAttack
from repro.core.successive import RoundCase, analyze_successive_breakdown

# Small, fully hand-checkable configuration:
# L=2, n=40 (n_i = 20), N=400, filters=4, one-to-five (m_i = 5, m_3 = 4),
# N_T=40 over R=2 (alpha=20), P_B=0.5, P_E=0.5 -> X_1 = 10.
ARCH = SOSArchitecture(
    layers=2,
    mapping="one-to-five",
    total_overlay_nodes=400,
    sos_nodes=40,
    filters=4,
)
ATTACK = SuccessiveAttack(
    break_in_budget=40,
    congestion_budget=0,
    break_in_success=0.5,
    rounds=2,
    prior_knowledge=0.5,
)


@pytest.fixture(scope="module")
def breakdown():
    return analyze_successive_breakdown(ARCH, ATTACK)


class TestRoundOne:
    """Round 1: X_1 = 10 < alpha = 20 < beta = 40 (general case)."""

    def test_case_classification(self, breakdown):
        assert breakdown.rounds[0].case is RoundCase.GENERAL
        assert breakdown.rounds[0].known_at_start == pytest.approx(10.0)

    def test_eq10_disclosed_attacks(self, breakdown):
        # h^D_{1,1} = d_{1,0} = 10 (prior knowledge, all at layer 1).
        state = breakdown.rounds[0]
        assert state.attacked_disclosed[0] == pytest.approx(10.0)
        assert state.attacked_disclosed[1] == 0.0

    def test_eq11_random_attacks(self, breakdown):
        # h^A_{i,1} = (alpha - X_1) * (n_i - d_{i,0} - 0) / (N - X_1 - 0).
        state = breakdown.rounds[0]
        pool = 400 - 10
        assert state.attacked_random[0] == pytest.approx(10 * (20 - 10) / pool)
        assert state.attacked_random[1] == pytest.approx(20 * (20 - 10) / pool)

    def test_eqs13_16_break_in_split(self, breakdown):
        state = breakdown.rounds[0]
        for i in (0, 1):
            assert state.broken_disclosed[i] == pytest.approx(
                0.5 * state.attacked_disclosed[i]
            )
            assert state.broken_random[i] == pytest.approx(
                0.5 * state.attacked_random[i]
            )
            assert state.survived_random[i] == pytest.approx(
                0.5 * state.attacked_random[i]
            )

    def test_eq18_19_layer2_disclosure(self, breakdown):
        # z_{2,1} = n_2 (1 - (1 - m_2/n_2)^{b_{1,1}} (1 - h_{2,1}/n_2));
        # d^N_{2,1} = z_{2,1} - h_{2,1}.
        state = breakdown.rounds[0]
        b_1_1 = state.broken_in[0]
        h_2_1 = state.attacked[1]
        z = 20 * (1 - (1 - 5 / 20) ** b_1_1 * (1 - h_2_1 / 20))
        assert state.disclosed_unattacked[1] == pytest.approx(z - h_2_1)

    def test_eq20_layer2_random_survivors_disclosed(self, breakdown):
        # d^A_{2,1} = u^A_{2,1} (1 - (1 - m_2/n_2)^{b_{1,1}}).
        state = breakdown.rounds[0]
        b_1_1 = state.broken_in[0]
        expected = state.survived_random[1] * (1 - (1 - 5 / 20) ** b_1_1)
        assert state.disclosed_survived_random[1] == pytest.approx(expected)

    def test_filter_disclosure_round_one(self, breakdown):
        # m_3 = 4 = all filters: any layer-2 break-in leaks the whole ring.
        state = breakdown.rounds[0]
        b_2_1 = state.broken_in[1]
        expected = 4 * (1 - (1 - 4 / 4) ** b_2_1) if b_2_1 > 0 else 0.0
        assert state.disclosed_unattacked[2] == pytest.approx(expected)


class TestRoundTwo:
    """Round 2 feeds on round 1's d^N and excludes everything attacked."""

    def test_x2_is_previous_rounds_fresh_disclosure(self, breakdown):
        first, second = breakdown.rounds[0], breakdown.rounds[1]
        # X_2 = sum_{i<=L} d^N_{i,1}: the filter slot does not feed round 2.
        assert second.known_at_start == pytest.approx(
            sum(first.disclosed_unattacked[:-1])
        )

    def test_disclosed_attacks_follow_eq10(self, breakdown):
        first, second = breakdown.rounds[0], breakdown.rounds[1]
        # Layer 1 is never freshly disclosed; layer 2 inherits d^N_{2,1}.
        assert second.attacked_disclosed[0] == 0.0
        assert second.attacked_disclosed[1] == pytest.approx(
            first.disclosed_unattacked[1]
        )

    def test_random_pool_excludes_history(self, breakdown):
        # Eq. 11 at j=2: pool = N - X_2 - sum_k h_{.,1}.
        first, second = breakdown.rounds[0], breakdown.rounds[1]
        x2 = second.known_at_start
        spent_round_one = sum(first.attacked[:2])
        pool = 400 - x2 - spent_round_one
        budget_left = 40 - 20  # beta after round 1; equals alpha -> FINAL
        assert second.case is RoundCase.FINAL_BUDGET
        expected_random_layer1 = (
            (20 - first.attacked[0]) / pool * (budget_left - x2)
        )
        assert second.attacked_random[0] == pytest.approx(
            expected_random_layer1
        )

    def test_sos_attacked_share_of_budget(self, breakdown):
        # The per-layer h arrays count only attempts landing on SOS nodes;
        # the rest of each round's spend hits the 360 non-SOS overlay
        # nodes. Reconstruct the SOS share by hand for both rounds.
        first, second = breakdown.rounds
        # Round 1: 10 disclosed + 10 random spread over pool 390.
        round1 = 10 + 10 * (10 / 390) + 10 * (20 / 390)
        assert sum(first.attacked[:2]) == pytest.approx(round1)
        # Round 2: X_2 disclosed + (20 - X_2) random over the shrunken pool.
        x2 = second.known_at_start
        pool = 400 - x2 - sum(first.attacked[:2])
        untouched1 = 20 - first.attacked[0]
        untouched2 = 20 - x2 - first.attacked[1]
        round2 = x2 + (20 - x2) * (untouched1 + untouched2) / pool
        assert sum(second.attacked[:2]) == pytest.approx(round2)
        assert len(breakdown.rounds) == 2
