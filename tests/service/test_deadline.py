"""Deadline arithmetic: remaining budgets, expiry, clamping."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service.deadline import DEFAULT_GRACE, NO_DEADLINE, Deadline


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_after_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == pytest.approx(-0.5)

    def test_from_timeout_ms(self):
        clock = FakeClock()
        deadline = Deadline.from_timeout_ms(1500.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.5)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ServiceError):
            Deadline.after(0.0)
        with pytest.raises(ServiceError):
            Deadline.from_timeout_ms(-10.0)

    def test_unbounded_never_expires(self):
        assert NO_DEADLINE.remaining() is None
        assert not NO_DEADLINE.expired
        assert Deadline.after(None).remaining() is None
        assert Deadline.after(1.0).remaining() is not None

    def test_clamp_caps_a_wait_to_the_budget(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        assert deadline.clamp(10.0) == pytest.approx(1.0)
        assert deadline.clamp(0.25) == pytest.approx(0.25)
        clock.advance(2.0)
        assert deadline.clamp(0.25) == 0.0
        assert NO_DEADLINE.clamp(7.0) == pytest.approx(7.0)

    def test_grace_constant_is_positive(self):
        assert DEFAULT_GRACE > 0
