"""Tests for attack-model specifications."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import OneBurstAttack, SuccessiveAttack
from repro.core.attack_models import MAX_ROUNDS
from repro.errors import ConfigurationError


class TestOneBurst:
    def test_defaults_match_paper(self):
        attack = OneBurstAttack()
        assert attack.n_t == 200.0
        assert attack.n_c == 2000.0
        assert attack.p_b == 0.5

    def test_aliases(self):
        attack = OneBurstAttack(
            break_in_budget=123, congestion_budget=456, break_in_success=0.7
        )
        assert (attack.n_t, attack.n_c, attack.p_b) == (123.0, 456.0, 0.7)

    def test_zero_budgets_allowed(self):
        attack = OneBurstAttack(break_in_budget=0, congestion_budget=0)
        assert attack.n_t == 0.0

    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigurationError):
            OneBurstAttack(break_in_budget=-1)
        with pytest.raises(ConfigurationError):
            OneBurstAttack(congestion_budget=-1)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            OneBurstAttack(break_in_success=1.5)

    def test_frozen(self):
        attack = OneBurstAttack()
        with pytest.raises(dataclasses.FrozenInstanceError):
            attack.break_in_budget = 10  # type: ignore[misc]


class TestSuccessive:
    def test_defaults_match_paper(self):
        attack = SuccessiveAttack()
        assert attack.r == 3
        assert attack.p_e == 0.2
        assert attack.n_t == 200.0
        assert attack.n_c == 2000.0

    def test_alpha_quota(self):
        attack = SuccessiveAttack(break_in_budget=300, rounds=4)
        assert attack.alpha == 75.0

    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            SuccessiveAttack(rounds=0)

    def test_rejects_unbounded_rounds(self):
        SuccessiveAttack(rounds=MAX_ROUNDS)
        for rounds in (MAX_ROUNDS + 1, 10**9):
            with pytest.raises(ConfigurationError, match="rounds"):
                SuccessiveAttack(rounds=rounds)

    def test_rejects_bad_prior_knowledge(self):
        with pytest.raises(ConfigurationError):
            SuccessiveAttack(prior_knowledge=-0.1)
        with pytest.raises(ConfigurationError):
            SuccessiveAttack(prior_knowledge=1.1)

    def test_equality_by_value(self):
        assert SuccessiveAttack() == SuccessiveAttack()
        assert SuccessiveAttack(rounds=2) != SuccessiveAttack(rounds=3)
