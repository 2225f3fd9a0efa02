"""A minimal discrete-event simulation engine.

The packet-level simulation (:mod:`repro.simulation.packet_sim`) needs an
ordered event loop with deterministic tie-breaking; this module provides
exactly that and nothing more: schedule callables at absolute or relative
times, run until a horizon, and inspect the clock.

Events scheduled at the same timestamp execute in scheduling order
(FIFO), which keeps seeded simulations bit-for-bit reproducible.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

Action = Callable[[], Any]


@dataclasses.dataclass(frozen=True, order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    action: Action = dataclasses.field(compare=False)
    cancelled: bool = dataclasses.field(compare=False, default=False)

    def cancel(self) -> None:
        """Tombstone the event; the loop skips it without executing.

        The dataclass is frozen so heap ordering stays immutable; the
        tombstone is the one field the loop is allowed to flip.
        """
        object.__setattr__(self, "cancelled", True)


class EventScheduler:
    """Priority-queue event loop with a monotonically advancing clock.

    Examples
    --------
    >>> scheduler = EventScheduler()
    >>> log = []
    >>> _ = scheduler.schedule_at(2.0, lambda: log.append("b"))
    >>> _ = scheduler.schedule_at(1.0, lambda: log.append("a"))
    >>> scheduler.run()
    >>> log
    ['a', 'b']
    """

    #: Queues shorter than this are never compacted — rebuilding a
    #: handful of entries costs more than the tombstones it reclaims.
    COMPACTION_MIN_QUEUE = 64

    def __init__(self) -> None:
        self._queue: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._tombstones = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for event in self._queue if not event.cancelled)

    @property
    def queued(self) -> int:
        """Raw heap size, cancelled tombstones included."""
        return len(self._queue)

    def schedule_at(self, time: float, action: Action) -> _ScheduledEvent:
        """Schedule ``action`` at absolute ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        event = _ScheduledEvent(time=time, sequence=next(self._sequence), action=action)
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(self, delay: float, action: Action) -> _ScheduledEvent:
        """Schedule ``action`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, action)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a scheduled event; the loop will skip it.

        Cancelling an already-executed or already-cancelled event is a
        no-op, so races between a cancel and the event firing are benign
        (the fault injector cancels pending recover events when a node
        crashes again before its scheduled recovery).

        Tombstoned events used to sit in the heap until popped; a
        cancel-heavy workload (churn injection under frequent
        re-crashes) could grow the queue without bound. The heap is now
        compacted whenever tombstones outnumber live events.
        """
        if not event.cancelled:
            event.cancel()
            self._tombstones += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap without tombstones once they dominate it.

        Triggered when more than half the queue is cancelled (and the
        queue is big enough to be worth the O(n) rebuild), keeping heap
        memory proportional to *live* events.
        """
        if (
            len(self._queue) >= self.COMPACTION_MIN_QUEUE
            and self._tombstones > len(self._queue) // 2
        ):
            self._queue = [e for e in self._queue if not e.cancelled]
            heapq.heapify(self._queue)
            self._tombstones = 0

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Drain the queue, stopping at time ``until`` if given.

        ``max_events`` guards against runaway self-rescheduling loops.
        Cancelled events are discarded without executing and without
        advancing the clock.
        """
        executed = 0
        while self._queue:
            if self._queue[0].cancelled:
                heapq.heappop(self._queue)
                self._tombstones = max(0, self._tombstones - 1)
                continue
            if until is not None and self._queue[0].time > until:
                break
            event = heapq.heappop(self._queue)
            self._now = event.time
            event.action()
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway event loop?"
                )
        if until is not None and self._now < until:
            self._now = until

    def step(self) -> bool:
        """Execute exactly one event; returns False when the queue is empty.

        Cancelled events are silently discarded on the way to the next
        live event.
        """
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self._tombstones = max(0, self._tombstones - 1)
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self._now = event.time
        event.action()
        return True
