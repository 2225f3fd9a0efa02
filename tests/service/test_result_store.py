"""Stale-while-revalidate result store: freshness, LRU, stats."""

from __future__ import annotations

import pytest

from repro.core.result_store import FRESH, STALE, ResultStore


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestFreshness:
    def test_miss_then_fresh_hit(self, clock):
        store = ResultStore(max_entries=4, ttl=10.0, clock=clock)
        assert store.lookup("k") is None
        store.put("k", {"p_s": 0.9})
        value, state = store.lookup("k")
        assert value == {"p_s": 0.9}
        assert state == FRESH

    def test_entry_goes_stale_after_ttl_but_stays_served(self, clock):
        store = ResultStore(max_entries=4, ttl=10.0, clock=clock)
        store.put("k", 1)
        clock.advance(10.5)
        value, state = store.lookup("k")
        assert value == 1
        assert state == STALE
        assert store.age("k") == pytest.approx(10.5)

    def test_put_refreshes_a_stale_entry(self, clock):
        store = ResultStore(max_entries=4, ttl=10.0, clock=clock)
        store.put("k", 1)
        clock.advance(20.0)
        assert store.lookup("k")[1] == STALE
        store.put("k", 2)
        value, state = store.lookup("k")
        assert (value, state) == (2, FRESH)


class TestLRU:
    def test_capacity_evicts_least_recently_used(self, clock):
        store = ResultStore(max_entries=2, ttl=10.0, clock=clock)
        store.put("a", 1)
        store.put("b", 2)
        store.lookup("a")  # a is now most-recent
        store.put("c", 3)
        assert "b" not in store
        assert "a" in store and "c" in store
        assert store.stats().evictions == 1

    def test_len_and_clear(self, clock):
        store = ResultStore(max_entries=8, ttl=10.0, clock=clock)
        store.put("a", 1)
        store.put("b", 2)
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


class TestStats:
    def test_hit_rate_accounts_fresh_and_stale(self, clock):
        store = ResultStore(max_entries=4, ttl=10.0, clock=clock)
        store.put("k", 1)
        store.lookup("k")          # fresh hit
        clock.advance(11.0)
        store.lookup("k")          # stale hit
        store.lookup("missing")    # miss
        stats = store.stats()
        assert stats.fresh_hits == 1
        assert stats.stale_hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)
