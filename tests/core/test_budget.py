"""Tests for the operational-resource to abstract-budget mapping."""

from __future__ import annotations

import pytest

from repro.core.attack_models import SuccessiveAttack
from repro.core.budget import (
    BreakInCampaign,
    CongestionCostModel,
    attack_from_resources,
)
from repro.errors import ConfigurationError

from tests.perf.event_oracle import NodeCapacity


class TestCongestionCostModel:
    def test_required_flood_rate(self):
        # c=100, theta=0.5 -> total arrivals 200; minus lam=10 -> 190 pps.
        model = CongestionCostModel()
        assert model.required_flood_rate == pytest.approx(190.0)

    def test_nodes_congestable_floor(self):
        model = CongestionCostModel()
        assert model.nodes_congestable(380.0) == 2
        assert model.nodes_congestable(379.9) == 1
        assert model.nodes_congestable(0.0) == 0

    def test_bandwidth_round_trip(self):
        model = CongestionCostModel()
        bandwidth = 2000 * model.required_flood_rate
        assert model.nodes_congestable(bandwidth) == 2000

    def test_saturated_nodes_rejected(self):
        model = CongestionCostModel(
            node_capacity=10.0, legitimate_rate=50.0, congestion_threshold=0.5
        )
        assert model.required_flood_rate == 0.0
        with pytest.raises(ConfigurationError, match="legitimate load alone"):
            model.nodes_congestable(100.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CongestionCostModel(node_capacity=0)
        with pytest.raises(ConfigurationError):
            CongestionCostModel(congestion_threshold=1.0)

    def test_consistent_with_token_bucket_simulation(self):
        """A flood at the model's required rate congests the simulated
        token-bucket node; slightly below it does not."""
        model = CongestionCostModel(
            node_capacity=100.0, legitimate_rate=10.0, congestion_threshold=0.5
        )
        rate = model.required_flood_rate

        def drop_rate(total_arrival_rate: float) -> float:
            bucket = NodeCapacity(capacity=100.0, burst=200.0)
            step = 1.0 / total_arrival_rate
            time = 0.0
            # Long run so the initial burst allowance washes out.
            for _ in range(int(60 * total_arrival_rate)):
                bucket.offer(time)
                time += step
            return bucket.drop_rate

        over = drop_rate(rate + model.legitimate_rate + 10)
        under = drop_rate((rate + model.legitimate_rate) * 0.7)
        assert over >= 0.5 - 0.05
        assert under < 0.5


class TestBreakInCampaign:
    def test_total_attempts(self):
        assert BreakInCampaign(10, 20).total_attempts == 200

    def test_fractional_floor(self):
        assert BreakInCampaign(2.5, 3).total_attempts == 7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BreakInCampaign(attempts_per_hour=-1)


class TestAttackFromResources:
    def test_paper_defaults_reachable(self):
        attack = attack_from_resources(bandwidth=380_000.0)
        assert isinstance(attack, SuccessiveAttack)
        assert attack.congestion_budget == 2000
        assert attack.break_in_budget == 200
        assert attack.rounds == 3

    def test_more_bandwidth_more_congestion(self):
        small = attack_from_resources(bandwidth=100_000.0)
        large = attack_from_resources(bandwidth=500_000.0)
        assert large.congestion_budget > small.congestion_budget

    def test_custom_campaign(self):
        attack = attack_from_resources(
            bandwidth=190_000.0,
            campaign=BreakInCampaign(attempts_per_hour=100, duration_hours=20),
            prior_knowledge=0.2,
        )
        assert attack.break_in_budget == 2000
        assert attack.prior_knowledge == 0.2
