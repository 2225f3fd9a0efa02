"""Keyed result store with TTL freshness and stale-while-revalidate.

:func:`repro.core.probability.all_bad_probability` memoizes its inner
product with a bounded ``lru_cache`` — the right tool for a pure scalar
kernel. A long-lived evaluation *service* needs the same idea one level
up, with properties an ``lru_cache`` cannot express:

* results are keyed by a **request fingerprint** (any hashable key; the
  service uses :func:`repro.resilience.checkpoint.fingerprint` of the
  canonical request payload);
* entries carry a **freshness horizon**: within ``ttl`` they are served
  as fresh hits, after it they remain available as *stale* values — the
  degraded answer a circuit-broken service prefers over an error
  (stale-while-revalidate, RFC 5861 semantics);
* capacity is bounded with LRU eviction, and hit/stale/miss statistics
  are first-class so health endpoints can report them.

The store is deliberately synchronous and unlocked: the service accesses
it only from the event-loop thread. The clock is injected so tests can
drive freshness deterministically.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

from repro.errors import ConfigurationError

#: Freshness classes returned by :meth:`ResultStore.lookup`.
FRESH = "fresh"
STALE = "stale"


@dataclasses.dataclass(frozen=True)
class StoreStats:
    """Counters describing store effectiveness (shape mirrors
    ``functools._CacheInfo`` plus the stale tier)."""

    fresh_hits: int
    stale_hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.fresh_hits + self.stale_hits + self.misses
        return (self.fresh_hits + self.stale_hits) / total if total else 0.0


@dataclasses.dataclass
class _Entry:
    value: Any
    stored_at: float
    refreshes: int = 0


class ResultStore:
    """Bounded LRU store of computed results with a freshness horizon.

    Parameters
    ----------
    max_entries:
        LRU capacity; the least-recently-*used* entry is evicted first.
    ttl:
        Seconds an entry counts as fresh. Beyond the TTL the entry is
        still returned by :meth:`lookup` — tagged :data:`STALE` — until
        evicted or overwritten; serving stale answers under degradation
        is the store's whole reason to exist.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_entries: int = 1024,
        ttl: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be > 0, got {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._fresh_hits = 0
        self._stale_hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def put(self, key: Hashable, value: Any) -> None:
        """Store (or refresh) ``key``; refreshing restores freshness."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.value = value
            entry.stored_at = self._clock()
            entry.refreshes += 1
            self._entries.move_to_end(key)
            return
        self._entries[key] = _Entry(value=value, stored_at=self._clock())
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    def lookup(self, key: Hashable) -> Optional[Tuple[Any, str]]:
        """Return ``(value, FRESH | STALE)`` or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        age = self._clock() - entry.stored_at
        if age <= self.ttl:
            self._fresh_hits += 1
            return entry.value, FRESH
        self._stale_hits += 1
        return entry.value, STALE

    def age(self, key: Hashable) -> Optional[float]:
        """Seconds since ``key`` was stored/refreshed, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        return self._clock() - entry.stored_at

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        return StoreStats(
            fresh_hits=self._fresh_hits,
            stale_hits=self._stale_hits,
            misses=self._misses,
            evictions=self._evictions,
            currsize=len(self._entries),
            maxsize=self.max_entries,
        )
