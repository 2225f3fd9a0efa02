"""Tests for the successive analytical model (§3.2, Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core import OneBurstAttack, SOSArchitecture, SuccessiveAttack
from repro.core.one_burst import analyze_one_burst
from repro.core.successive import (
    RoundCase,
    analyze_successive,
    analyze_successive_breakdown,
)
from repro.errors import ConfigurationError


def arch(layers=3, mapping="one-to-five", **kwargs):
    return SOSArchitecture(layers=layers, mapping=mapping, **kwargs)


class TestDegeneracy:
    """With R=1 and P_E=0 the successive model IS the one-burst model."""

    @pytest.mark.parametrize("layers", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "mapping", ["one-to-one", "one-to-five", "one-to-half", "one-to-all"]
    )
    @pytest.mark.parametrize(
        "n_t,n_c", [(0, 0), (0, 6000), (200, 2000), (2000, 2000), (500, 10)]
    )
    def test_matches_one_burst(self, layers, mapping, n_t, n_c):
        a = arch(layers=layers, mapping=mapping)
        burst = analyze_one_burst(a, OneBurstAttack(n_t, n_c))
        successive = analyze_successive(
            a, SuccessiveAttack(n_t, n_c, rounds=1, prior_knowledge=0.0)
        )
        assert successive.p_s == pytest.approx(burst.p_s, abs=1e-12)
        assert successive.broken_in_total == pytest.approx(
            burst.broken_in_total, abs=1e-9
        )
        assert successive.disclosed_total == pytest.approx(
            burst.disclosed_total, abs=1e-9
        )
        for s_layer, b_layer in zip(successive.layers, burst.layers):
            assert s_layer.bad == pytest.approx(b_layer.bad, abs=1e-9)


class TestPriorKnowledge:
    def test_round_zero_knowledge_is_first_layer_fraction(self):
        breakdown = analyze_successive_breakdown(
            arch(), SuccessiveAttack(prior_knowledge=0.3)
        )
        first_round = breakdown.rounds[0]
        n1 = arch().layer_sizes_tuple[0]
        assert first_round.known_at_start == pytest.approx(0.3 * n1)
        # Those known nodes are attacked first, at layer 1.
        assert first_round.attacked_disclosed[0] == pytest.approx(0.3 * n1)

    def test_more_prior_knowledge_hurts(self):
        low = analyze_successive(arch(), SuccessiveAttack(prior_knowledge=0.0)).p_s
        high = analyze_successive(arch(), SuccessiveAttack(prior_knowledge=0.8)).p_s
        assert high <= low + 1e-12

    def test_prior_knowledge_only_at_layer_one(self):
        breakdown = analyze_successive_breakdown(
            arch(), SuccessiveAttack(prior_knowledge=0.5)
        )
        first_round = breakdown.rounds[0]
        assert all(v == 0.0 for v in first_round.attacked_disclosed[1:])


class TestAlgorithmCases:
    def test_general_case_on_defaults(self):
        breakdown = analyze_successive_breakdown(arch(), SuccessiveAttack())
        assert breakdown.rounds[0].case is RoundCase.GENERAL

    def test_final_budget_case_single_round(self):
        breakdown = analyze_successive_breakdown(
            arch(), SuccessiveAttack(rounds=1, prior_knowledge=0.0)
        )
        assert len(breakdown.rounds) == 1
        assert breakdown.rounds[0].case is RoundCase.FINAL_BUDGET

    def test_exhausted_case_when_budget_zero(self):
        breakdown = analyze_successive_breakdown(
            arch(), SuccessiveAttack(break_in_budget=0, prior_knowledge=0.4)
        )
        first = breakdown.rounds[0]
        assert first.case is RoundCase.EXHAUSTED
        # No budget: every known node is forfeited to the congestion phase.
        n1 = arch().layer_sizes_tuple[0]
        assert first.forfeited[0] == pytest.approx(0.4 * n1)
        assert sum(first.broken_in) == 0.0

    def test_disclosed_heavy_case(self):
        # Many rounds make the per-round quota alpha = N_T / R tiny; prior
        # knowledge of half the first layer (X_1 = 16.7 > alpha = 10) then
        # exceeds it while ample budget remains.
        attack = SuccessiveAttack(
            break_in_budget=300, rounds=30, prior_knowledge=0.5
        )
        breakdown = analyze_successive_breakdown(
            arch(mapping="one-to-five"), attack
        )
        cases = {state.case for state in breakdown.rounds}
        assert RoundCase.DISCLOSED_HEAVY in cases
        # Rounds in this case spend no random attempts.
        heavy = next(
            s for s in breakdown.rounds if s.case is RoundCase.DISCLOSED_HEAVY
        )
        assert sum(heavy.attacked_random) == 0.0

    def test_terminates_at_most_r_rounds(self):
        for rounds in (1, 2, 3, 7):
            breakdown = analyze_successive_breakdown(
                arch(), SuccessiveAttack(rounds=rounds)
            )
            assert len(breakdown.rounds) <= rounds

    def test_budget_never_overspent(self):
        for rounds in (1, 2, 3, 5, 9):
            attack = SuccessiveAttack(break_in_budget=200, rounds=rounds)
            breakdown = analyze_successive_breakdown(arch(), attack)
            total_attempts = sum(
                sum(state.attacked) for state in breakdown.rounds
            )
            assert total_attempts <= attack.n_t + 1e-6


class TestRoundBookkeeping:
    def test_break_in_split_by_p_b(self):
        breakdown = analyze_successive_breakdown(
            arch(), SuccessiveAttack(break_in_success=0.3)
        )
        for state in breakdown.rounds:
            for h, b, u in zip(
                state.attacked_disclosed,
                state.broken_disclosed,
                state.survived_disclosed,
            ):
                assert b == pytest.approx(0.3 * h)
                assert u == pytest.approx(0.7 * h)
                assert b + u == pytest.approx(h)

    def test_layer_one_never_disclosed_in_rounds(self):
        breakdown = analyze_successive_breakdown(arch(), SuccessiveAttack())
        for state in breakdown.rounds:
            assert state.disclosed_unattacked[0] == 0.0

    def test_newly_known_feeds_next_round(self):
        breakdown = analyze_successive_breakdown(arch(), SuccessiveAttack())
        rounds = breakdown.rounds
        for prev, nxt in zip(rounds, rounds[1:]):
            # h^D of round j+1 equals d^N of round j on SOS layers 2..L.
            for i in range(1, arch().layers):
                assert nxt.attacked_disclosed[i] == pytest.approx(
                    prev.disclosed_unattacked[i]
                )

    def test_filters_accumulate_disclosures_only(self):
        breakdown = analyze_successive_breakdown(
            arch(mapping="one-to-all"), SuccessiveAttack(break_in_budget=2000)
        )
        for state in breakdown.rounds:
            assert state.attacked[-1] == 0.0
            assert state.broken_in[-1] == 0.0


class TestPaperSuccessiveClaims:
    """Qualitative claims from §3.2.3 (Figs. 6-8)."""

    def test_more_rounds_lower_ps(self):
        values = [
            analyze_successive(arch(layers=5), SuccessiveAttack(rounds=r)).p_s
            for r in range(1, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_larger_nt_lower_ps(self):
        values = [
            analyze_successive(
                arch(mapping="one-to-two"), SuccessiveAttack(break_in_budget=nt)
            ).p_s
            for nt in (0, 100, 400, 1600, 6400)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_larger_overlay_population_raises_ps(self):
        small = analyze_successive(
            arch(mapping="one-to-one", total_overlay_nodes=10_000),
            SuccessiveAttack(break_in_budget=800),
        ).p_s
        large = analyze_successive(
            arch(mapping="one-to-one", total_overlay_nodes=20_000),
            SuccessiveAttack(break_in_budget=800),
        ).p_s
        assert large > small

    def test_increasing_distribution_beats_decreasing(self):
        # §3.2.3: with mapping degree > 1, increasing distributions win.
        increasing = analyze_successive(
            SOSArchitecture(layers=4, mapping="one-to-five", distribution="increasing"),
            SuccessiveAttack(),
        ).p_s
        decreasing = analyze_successive(
            SOSArchitecture(layers=4, mapping="one-to-five", distribution="decreasing"),
            SuccessiveAttack(),
        ).p_s
        assert increasing > decreasing

    def test_distribution_sensitivity_shrinks_with_layers(self):
        # §3.2.3: past its peak, sensitivity to the node distribution
        # gradually reduces as L grows. With one-to-five the spread peaks at
        # L=4 and declines beyond.
        def spread(layers):
            values = [
                analyze_successive(
                    SOSArchitecture(
                        layers=layers, mapping="one-to-five", distribution=dist
                    ),
                    SuccessiveAttack(),
                ).p_s
                for dist in ("even", "increasing", "decreasing")
            ]
            return max(values) - min(values)

        peak = spread(4)
        assert spread(8) < peak
        assert spread(10) < peak

    def test_distribution_sensitivity_grows_with_mapping_degree(self):
        # §3.2.3: "sensitivity of P_S to the node distribution seems more
        # pronounced for higher mapping degrees".
        def spread(mapping):
            values = [
                analyze_successive(
                    SOSArchitecture(layers=4, mapping=mapping, distribution=dist),
                    SuccessiveAttack(),
                ).p_s
                for dist in ("even", "increasing", "decreasing")
            ]
            return max(values) - min(values)

        assert spread("one-to-one") < spread("one-to-five")

    def test_best_config_is_l4_one_to_two_among_fig6a_grid(self):
        # Paper: "the one with L=4 and mapping degree one to two provides the
        # best overall performance" among the Fig. 6(a) configurations.
        grid = {}
        for layers in range(1, 9):
            for mapping in (
                "one-to-one",
                "one-to-two",
                "one-to-five",
                "one-to-half",
                "one-to-all",
            ):
                grid[(layers, mapping)] = analyze_successive(
                    SOSArchitecture(layers=layers, mapping=mapping),
                    SuccessiveAttack(),
                ).p_s
        best = max(grid, key=grid.get)
        assert best[1] == "one-to-two"
        assert best[0] in (3, 4, 5)


class TestValidationErrors:
    def test_budget_exceeding_population_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_successive(arch(), SuccessiveAttack(break_in_budget=20_000))


class TestStructure:
    def test_performance_layers_include_filters(self):
        result = analyze_successive(arch(layers=4), SuccessiveAttack())
        assert len(result.layers) == 5

    def test_bad_sets_within_bounds(self):
        result = analyze_successive(
            arch(mapping="one-to-all"), SuccessiveAttack(break_in_budget=2000)
        )
        for layer in result.layers:
            assert 0.0 <= layer.bad <= layer.size + 1e-9
