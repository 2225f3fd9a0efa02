"""Tests for the Monte Carlo P_S estimator, including agreement with the
analytical model — the library's central cross-validation."""

from __future__ import annotations

import pytest

from repro.core import OneBurstAttack, SOSArchitecture, SuccessiveAttack, evaluate
from repro.errors import SimulationError
from repro.simulation.monte_carlo import (
    MonteCarloConfig,
    MonteCarloEstimator,
    estimate_ps,
)


def small_arch(mapping="one-to-half", layers=3):
    return SOSArchitecture(
        layers=layers,
        mapping=mapping,
        total_overlay_nodes=800,
        sos_nodes=60,
        filters=5,
    )


class TestConfig:
    def test_defaults(self):
        config = MonteCarloConfig()
        assert config.trials == 200
        assert config.metric == "forward"

    def test_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            MonteCarloConfig(trials=0)
        with pytest.raises(SimulationError):
            MonteCarloConfig(clients_per_trial=0)
        with pytest.raises(SimulationError):
            MonteCarloConfig(metric="teleport")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 2.5),
            ("trials", "3"),
            ("trials", True),
            ("clients_per_trial", 1.5),
            ("clients_per_trial", False),
            ("workers", 2.0),
            ("workers", True),
            ("checkpoint_every", "8"),
            ("checkpoint_every", True),
        ],
    )
    def test_rejects_non_int_counts(self, field, value):
        with pytest.raises(SimulationError, match=field):
            MonteCarloConfig(**{field: value})

    def test_trials_capped_before_streams_spawn(self, monkeypatch):
        from repro.simulation import monte_carlo

        def no_spawn(*args, **kwargs):
            raise AssertionError("a stream was spawned")

        monkeypatch.setattr(monte_carlo.SeedSequenceFactory, "spawn", no_spawn)
        with pytest.raises(SimulationError, match="trials"):
            estimate_ps(
                small_arch(), OneBurstAttack(0, 0), trials=10**9, seed=1
            )
        MonteCarloConfig(trials=monte_carlo.MAX_TRIALS)
        with pytest.raises(SimulationError, match="trials"):
            MonteCarloConfig(trials=monte_carlo.MAX_TRIALS + 1)

    def test_fractional_clients_fail_before_any_trial_runs(self, monkeypatch):
        from repro.simulation import monte_carlo

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(monte_carlo, "_run_trial", no_trial)
        with pytest.raises(SimulationError, match="clients_per_trial"):
            estimate_ps(
                small_arch(), OneBurstAttack(0, 0), trials=3,
                clients_per_trial=1.5, seed=1,
            )


class TestEstimator:
    def test_no_attack_gives_certainty(self):
        result = estimate_ps(
            small_arch(), OneBurstAttack(0, 0), trials=10, seed=1
        )
        assert result.mean == 1.0
        assert result.trials == 10

    def test_total_congestion_gives_zero(self):
        # Congest the entire overlay: no SOS node survives.
        result = estimate_ps(
            small_arch(),
            OneBurstAttack(break_in_budget=0, congestion_budget=800),
            trials=10,
            seed=1,
        )
        assert result.mean == 0.0

    def test_deterministic_under_seed(self):
        attack = OneBurstAttack(100, 200)
        a = estimate_ps(small_arch(), attack, trials=15, seed=9)
        b = estimate_ps(small_arch(), attack, trials=15, seed=9)
        assert a.mean == b.mean
        assert a.mean_bad_per_layer == b.mean_bad_per_layer

    def test_reports_bad_counts_per_layer(self):
        result = estimate_ps(
            small_arch(), OneBurstAttack(100, 200), trials=10, seed=2
        )
        assert set(result.mean_bad_per_layer) == {1, 2, 3, 4}

    def test_reachability_upper_bounds_forwarding(self):
        attack = SuccessiveAttack(
            break_in_budget=100, congestion_budget=150, rounds=2,
            prior_knowledge=0.2,
        )
        forward = estimate_ps(
            small_arch("one-to-two"), attack, trials=40, seed=3, metric="forward"
        )
        reach = estimate_ps(
            small_arch("one-to-two"), attack, trials=40, seed=3,
            metric="reachability",
        )
        assert reach.mean >= forward.mean - 0.05


@pytest.mark.parametrize(
    "mapping,attack",
    [
        ("one-to-one", OneBurstAttack(break_in_budget=0, congestion_budget=480)),
        ("one-to-half", OneBurstAttack(break_in_budget=160, congestion_budget=160)),
        ("one-to-two", SuccessiveAttack(break_in_budget=16, congestion_budget=160)),
        ("one-to-one", SuccessiveAttack(break_in_budget=64, congestion_budget=160)),
    ],
)
def test_agreement_with_analytical_model(mapping, attack):
    """MC on executed attacks tracks the average-case analysis.

    Budgets above are the paper's defaults scaled to N=800 (so the n/N and
    budget/N ratios match §3's regime).
    """
    architecture = small_arch(mapping)
    analytical = evaluate(architecture, attack).p_s
    estimate = MonteCarloEstimator(
        MonteCarloConfig(trials=120, clients_per_trial=4, seed=7)
    ).estimate(architecture, attack)
    assert estimate.agrees_with(analytical, tolerance=0.12), (
        f"analytical={analytical:.3f} vs MC={estimate.mean:.3f} "
        f"CI={estimate.ci95}"
    )
