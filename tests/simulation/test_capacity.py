"""Tests for the token-bucket capacity model of the event-driven oracle."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from tests.perf.event_oracle import NodeCapacity


class TestTokenBucket:
    def test_accepts_within_burst(self):
        capacity = NodeCapacity(capacity=10, burst=20)
        accepted = sum(capacity.offer(0.0) for _ in range(20))
        assert accepted == 20

    def test_drops_beyond_burst(self):
        capacity = NodeCapacity(capacity=10, burst=20)
        results = [capacity.offer(0.0) for _ in range(30)]
        assert sum(results) == 20
        assert capacity.dropped == 10

    def test_refills_over_time(self):
        capacity = NodeCapacity(capacity=10, burst=20)
        for _ in range(20):
            capacity.offer(0.0)
        assert not capacity.offer(0.0)
        # After 1 time unit, 10 tokens refill.
        accepted = sum(capacity.offer(1.0) for _ in range(15))
        assert accepted == 10

    def test_burst_caps_refill(self):
        capacity = NodeCapacity(capacity=10, burst=20)
        # Long idle period cannot exceed the burst ceiling.
        accepted = sum(capacity.offer(100.0) for _ in range(30))
        assert accepted == 20

    def test_time_cannot_go_backwards(self):
        capacity = NodeCapacity()
        capacity.offer(5.0)
        with pytest.raises(SimulationError):
            capacity.offer(4.0)


class TestCongestionDetection:
    def test_not_congested_without_traffic(self):
        assert not NodeCapacity().is_congested

    def test_sustained_overload_flags_congestion(self):
        capacity = NodeCapacity(capacity=10, burst=10)
        for _ in range(100):
            capacity.offer(0.0)
        assert capacity.drop_rate > 0.5
        assert capacity.is_congested

    def test_light_load_not_congested(self):
        capacity = NodeCapacity(capacity=10, burst=20)
        for t in range(50):
            capacity.offer(float(t))
        assert not capacity.is_congested

    def test_minimum_observations_before_flagging(self):
        capacity = NodeCapacity(capacity=1, burst=1)
        capacity.offer(0.0)
        capacity.offer(0.0)  # dropped
        assert capacity.drop_rate == 0.5
        assert not capacity.is_congested  # fewer than 10 observations

    def test_reset_window(self):
        capacity = NodeCapacity(capacity=10, burst=10)
        for _ in range(100):
            capacity.offer(0.0)
        capacity.reset_window()
        assert capacity.accepted == 0
        assert capacity.dropped == 0
        assert not capacity.is_congested


class TestValidation:
    def test_rejects_zero_capacity(self):
        with pytest.raises(SimulationError):
            NodeCapacity(capacity=0)

    def test_rejects_burst_below_capacity(self):
        with pytest.raises(SimulationError):
            NodeCapacity(capacity=10, burst=5)

    def test_rejects_bad_threshold(self):
        with pytest.raises(SimulationError):
            NodeCapacity(congestion_threshold=0.0)
