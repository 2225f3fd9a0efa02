"""Tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import EventScheduler


class TestScheduling:
    def test_events_execute_in_time_order(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule_at(3.0, lambda: log.append("c"))
        scheduler.schedule_at(1.0, lambda: log.append("a"))
        scheduler.schedule_at(2.0, lambda: log.append("b"))
        scheduler.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        scheduler = EventScheduler()
        log = []
        for i in range(5):
            scheduler.schedule_at(1.0, lambda i=i: log.append(i))
        scheduler.run()
        assert log == [0, 1, 2, 3, 4]

    def test_schedule_after_is_relative(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule_after(1.0, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [1.0]

    def test_nested_scheduling(self):
        scheduler = EventScheduler()
        log = []

        def first():
            log.append(("first", scheduler.now))
            scheduler.schedule_after(0.5, second)

        def second():
            log.append(("second", scheduler.now))

        scheduler.schedule_at(1.0, first)
        scheduler.run()
        assert log == [("first", 1.0), ("second", 1.5)]

    def test_cannot_schedule_in_past(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule_after(-1.0, lambda: None)


class TestRun:
    def test_run_until_horizon(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule_at(1.0, lambda: log.append(1))
        scheduler.schedule_at(5.0, lambda: log.append(5))
        scheduler.run(until=2.0)
        assert log == [1]
        assert scheduler.now == 2.0
        assert scheduler.pending == 1

    def test_resume_after_horizon(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule_at(5.0, lambda: log.append(5))
        scheduler.run(until=2.0)
        scheduler.run()
        assert log == [5]

    def test_runaway_loop_detected(self):
        scheduler = EventScheduler()

        def forever():
            scheduler.schedule_after(0.1, forever)

        scheduler.schedule_after(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            scheduler.run(max_events=100)

    def test_step(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule_at(1.0, lambda: log.append(1))
        assert scheduler.step() is True
        assert scheduler.step() is False
        assert log == [1]

    def test_processed_counter(self):
        scheduler = EventScheduler()
        processed = []
        for i in range(3):
            scheduler.schedule_at(float(i), lambda: processed.append(1))
        scheduler.run()
        assert len(processed) == 3

class TestCancellation:
    def test_cancelled_event_never_fires(self):
        scheduler = EventScheduler()
        log = []
        event = scheduler.schedule_at(1.0, lambda: log.append("a"))
        scheduler.schedule_at(2.0, lambda: log.append("b"))
        scheduler.cancel(event)
        scheduler.run()
        assert log == ["b"]

    def test_cancel_updates_pending_count(self):
        scheduler = EventScheduler()
        first = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        assert scheduler.pending == 2
        scheduler.cancel(first)
        assert scheduler.pending == 1

    def test_cancelled_event_does_not_advance_clock(self):
        scheduler = EventScheduler()
        event = scheduler.schedule_at(5.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        scheduler.cancel(event)
        scheduler.run()
        assert scheduler.now == 2.0

    def test_cancelled_event_not_counted_as_processed(self):
        scheduler = EventScheduler()
        processed = []
        event = scheduler.schedule_at(1.0, lambda: processed.append(1))
        scheduler.schedule_at(2.0, lambda: processed.append(2))
        scheduler.cancel(event)
        scheduler.run()
        assert len(processed) == 1

    def test_cancel_is_idempotent(self):
        scheduler = EventScheduler()
        log = []
        event = scheduler.schedule_at(1.0, lambda: log.append("a"))
        scheduler.cancel(event)
        scheduler.cancel(event)
        scheduler.run()
        assert log == []

    def test_cancel_after_execution_is_noop(self):
        scheduler = EventScheduler()
        log = []
        event = scheduler.schedule_at(1.0, lambda: log.append("a"))
        scheduler.run()
        scheduler.cancel(event)  # must not raise
        assert log == ["a"]

    def test_cancel_from_within_a_running_event(self):
        scheduler = EventScheduler()
        log = []
        victim = scheduler.schedule_at(2.0, lambda: log.append("victim"))
        scheduler.schedule_at(1.0, lambda: scheduler.cancel(victim))
        scheduler.run()
        assert log == []

    def test_step_skips_cancelled_events(self):
        scheduler = EventScheduler()
        log = []
        event = scheduler.schedule_at(1.0, lambda: log.append("a"))
        scheduler.schedule_at(2.0, lambda: log.append("b"))
        scheduler.cancel(event)
        assert scheduler.step() is True
        assert log == ["b"]
        assert scheduler.step() is False


class TestCompaction:
    def test_tombstones_reclaimed_when_dominating(self):
        # Regression: cancelled events used to sit in the heap until
        # popped, so a cancel-heavy workload grew the queue without
        # bound. Cancelling more than half of a large queue must now
        # shrink the raw heap down to the live events.
        scheduler = EventScheduler()
        events = [
            scheduler.schedule_at(float(i + 1), lambda: None)
            for i in range(EventScheduler.COMPACTION_MIN_QUEUE * 2)
        ]
        assert scheduler.queued == len(events)
        for event in events[::2]:
            scheduler.cancel(event)
        # One more cancel pushes tombstones past half the queue.
        scheduler.cancel(events[1])
        assert scheduler.queued - scheduler.pending == 0
        assert scheduler.queued == len(events) // 2 - 1
        assert scheduler.pending == scheduler.queued

    def test_small_queues_never_compacted(self):
        scheduler = EventScheduler()
        events = [
            scheduler.schedule_at(float(i + 1), lambda: None)
            for i in range(EventScheduler.COMPACTION_MIN_QUEUE - 1)
        ]
        for event in events:
            scheduler.cancel(event)
        # All tombstoned, but below the size floor: heap left alone.
        assert scheduler.queued == len(events)
        assert scheduler.queued - scheduler.pending == len(events)

    def test_compaction_preserves_execution_order(self):
        scheduler = EventScheduler()
        log = []
        keep = []
        for i in range(EventScheduler.COMPACTION_MIN_QUEUE * 2):
            time = float(i + 1)
            if i % 3 == 0:
                keep.append((time, scheduler.schedule_at(time, lambda t=time: log.append(t))))
            else:
                scheduler.cancel(scheduler.schedule_at(time, lambda: log.append("wrong")))
        scheduler.run()
        assert log == [time for time, _ in keep]
        assert scheduler.queued == 0
