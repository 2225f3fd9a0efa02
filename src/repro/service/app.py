"""The SOS evaluation service: endpoints, degradation policy, health.

:class:`SOSEvaluationService` is the HTTP-agnostic façade tying the
robustness layer together. Request flow for the synchronous endpoints
(``/eval``, ``/sweep``)::

    validate -> result store (fresh hit returns immediately)
             -> circuit breaker (open: serve stale or 503)
             -> bounded admission queue (full: shed, 429 + Retry-After)
             -> worker pool (deadline-propagated, crash-respawned)
             -> store refresh + breaker bookkeeping -> response

Campaigns (``/campaign``) are submitted asynchronously: the response is
``202`` with a campaign id; progress is polled at ``/campaign/<id>``.
Their Monte-Carlo state lives in a spool checkpoint, so a worker killed
mid-campaign resumes where it stopped and the final aggregates are
bit-identical to an undisturbed run.

Degradation ladder, most preferred first: fresh cache -> live compute ->
stale cache (``degraded: true``) -> 503 with Retry-After. A stale answer
also schedules a background revalidation when admission has room — the
stale-while-revalidate contract of :class:`repro.core.ResultStore`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.result_store import FRESH, ResultStore
from repro.errors import ReproError, ServiceError
from repro.resilience.breaker import CLOSED, BreakerConfig, CircuitBreaker
from repro.service.admission import (
    AdmissionQueue,
    QueuedRequest,
    QueueTimeout,
    Shed,
)
from repro.service.deadline import Deadline
from repro.service.jobs import canonical_key, validate_payload
from repro.service.metrics import ServiceMetrics
from repro.service.pool import JobResult, PoolConfig, WorkerPool

Response = Tuple[int, Dict[str, Any], Dict[str, str]]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Operating envelope of one service instance."""

    workers: int = 2
    queue_capacity: int = 64
    default_deadline_ms: float = 5_000.0
    sweep_deadline_ms: float = 30_000.0
    store_entries: int = 2048
    store_ttl: float = 300.0
    spool_dir: Optional[str] = None
    seed: int = 0
    max_restarts_per_job: int = 8
    deadline_grace: float = 0.5
    breaker: BreakerConfig = dataclasses.field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ServiceError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.default_deadline_ms <= 0:
            raise ServiceError("default_deadline_ms must be > 0")


class SOSEvaluationService:
    """Long-lived evaluation server over the analytical + simulation core."""

    def __init__(self, config: ServiceConfig = ServiceConfig()) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.store = ResultStore(
            max_entries=config.store_entries, ttl=config.store_ttl
        )
        self.breaker = CircuitBreaker(config.breaker)
        self.queue = AdmissionQueue(
            capacity=config.queue_capacity, workers=config.workers
        )
        spool = config.spool_dir or os.path.join(".", ".service_spool")
        os.makedirs(spool, exist_ok=True)
        self.spool_dir = spool
        self.pool = WorkerPool(
            PoolConfig(
                workers=config.workers,
                spool_dir=spool,
                deadline_grace=config.deadline_grace,
                max_restarts_per_job=config.max_restarts_per_job,
                seed=config.seed,
            ),
            metrics=self.metrics,
        )
        self._campaigns: Dict[str, Dict[str, Any]] = {}
        self._background: "set[asyncio.Task[None]]" = set()
        self._chaos: Dict[str, Any] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            raise ServiceError("service already started")
        await self.pool.start(self.queue)
        self._started = True

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        for task in list(self._background):
            task.cancel()
        self.queue.drain()
        await self.pool.stop()

    # ------------------------------------------------------------------
    # Chaos hooks (used only by tools/chaos_service.py and tests)
    # ------------------------------------------------------------------
    def set_chaos(
        self,
        latency_ms: Optional[float] = None,
        fail: Optional[str] = None,
    ) -> None:
        """Inject worker-side latency/failures into subsequent jobs."""
        self._chaos = {}
        if latency_ms:
            self._chaos["chaos_sleep_ms"] = float(latency_ms)
        if fail:
            self._chaos["chaos_fail"] = fail

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def handle(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Dispatch one request; returns (status, body, extra headers)."""
        started = time.monotonic()
        endpoint, response = await self._route(method, path, body or {}, headers or {})
        elapsed = time.monotonic() - started
        self.metrics.observe(endpoint, elapsed)
        self.metrics.incr(f"http.status_{response[0] // 100}xx")
        self.metrics.incr(f"http.{endpoint}")
        return response

    async def _route(
        self,
        method: str,
        path: str,
        body: Dict[str, Any],
        headers: Dict[str, str],
    ) -> Tuple[str, Response]:
        if method == "GET" and path == "/healthz":
            return "healthz", (200, {"status": "ok"}, {})
        if method == "GET" and path == "/readyz":
            return "readyz", await self.readiness()
        if method == "GET" and path == "/metrics":
            return "metrics", (200, self.snapshot(), {})
        if method == "GET" and path.startswith("/campaign/"):
            return "campaign_status", self._campaign_status(
                path[len("/campaign/"):]
            )
        if method == "POST" and path == "/eval":
            return "eval", await self._run_sync("eval", body, headers)
        if method == "POST" and path == "/sweep":
            return "sweep", await self._run_sync("sweep", body, headers)
        if method == "POST" and path == "/campaign":
            return "campaign_submit", await self._submit_campaign(body)
        return "unknown", (
            404,
            {"error": f"no route for {method} {path}"},
            {},
        )

    # ------------------------------------------------------------------
    # Synchronous endpoints: /eval and /sweep
    # ------------------------------------------------------------------
    def _deadline_for(
        self, kind: str, body: Dict[str, Any], headers: Dict[str, str]
    ) -> Deadline:
        raw = headers.get("x-deadline-ms", body.get("deadline_ms"))
        if raw is None:
            raw = (
                self.config.sweep_deadline_ms
                if kind == "sweep"
                else self.config.default_deadline_ms
            )
        return Deadline.from_timeout_ms(raw)

    def _priority_for(self, kind: str, body: Dict[str, Any]) -> str:
        requested = body.get("priority")
        if requested is not None:
            return str(requested)
        return "interactive" if kind == "eval" else "batch"

    def _job_payload(self, kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
        payload = {
            name: value
            for name, value in body.items()
            if name not in ("deadline_ms", "priority")
        }
        payload["kind"] = kind
        payload.update(self._chaos)
        return payload

    async def _run_sync(
        self, kind: str, body: Dict[str, Any], headers: Dict[str, str]
    ) -> Response:
        try:
            validate_payload(kind, body)
            deadline = self._deadline_for(kind, body, headers)
        except ReproError as exc:
            self.metrics.incr("http.bad_request")
            return 400, {"error": str(exc)}, {}
        key = canonical_key(kind, body)

        cached = self.store.lookup(key)
        if cached is not None and cached[1] == FRESH:
            self.metrics.incr("serve.fresh_cache")
            return 200, {**cached[0], "cached": True}, {}

        if not self.breaker.allow():
            return self._degraded(key, cached, reason="circuit_open")

        request = self.queue.try_submit(
            self._job_payload(kind, body),
            priority=self._priority_for(kind, body),
            deadline=deadline,
        )
        outcome = await request.future
        return self._finish_sync(key, cached, outcome)

    def _finish_sync(
        self,
        key: str,
        cached: Optional[Tuple[Dict[str, Any], str]],
        outcome: Any,
    ) -> Response:
        if isinstance(outcome, Shed):
            self.breaker.record_discard()
            self.metrics.incr("serve.shed")
            return (
                429,
                {"error": "overloaded", "reason": outcome.reason},
                {"Retry-After": f"{outcome.retry_after:.0f}"},
            )
        if isinstance(outcome, QueueTimeout):
            self.breaker.record_discard()
            self.metrics.incr("serve.queue_deadline_expired")
            return (
                504,
                {"error": "deadline expired while queued",
                 "waited_seconds": outcome.waited},
                {},
            )
        if not isinstance(outcome, JobResult):  # pragma: no cover
            raise ServiceError(f"unexpected outcome {outcome!r}")

        if outcome.ok and outcome.result is not None:
            self.breaker.record_success()
            self.store.put(key, outcome.result)
            self.metrics.incr("serve.computed")
            body = dict(outcome.result)
            if outcome.restarts:
                body["worker_restarts"] = outcome.restarts
            return 200, body, {}
        if outcome.status == "timeout":
            self.breaker.record_failure()
            self.metrics.incr("serve.deadline_expired")
            return 504, {"error": outcome.error or "deadline expired"}, {}
        if outcome.status == "cancelled":
            self.breaker.record_discard()
            return 503, {"error": outcome.error or "cancelled"}, {}
        # error / crashed: prefer a stale answer over an error page.
        self.breaker.record_failure()
        self.metrics.incr("serve.backend_error")
        if cached is not None:
            return self._degraded(key, cached, reason=outcome.status)
        return 500, {"error": outcome.error or outcome.status}, {}

    def _degraded(
        self,
        key: str,
        cached: Optional[Tuple[Dict[str, Any], str]],
        reason: str,
    ) -> Response:
        """Serve stale-while-revalidate, else an honest 503."""
        if cached is not None:
            self.metrics.incr("serve.stale_cache")
            self._schedule_revalidation(key)
            age = self.store.age(key)
            body = {
                **cached[0],
                "cached": True,
                "degraded": True,
                "degraded_reason": reason,
            }
            if age is not None:
                body["age_seconds"] = age
            return 200, body, {}
        self.metrics.incr("serve.unavailable")
        retry_after = max(1.0, self.breaker.seconds_until_half_open())
        return (
            503,
            {"error": "degraded and no cached answer", "reason": reason},
            {"Retry-After": f"{retry_after:.0f}"},
        )


    def _schedule_revalidation(self, key: str) -> None:
        """Best-effort: nothing to revalidate unless the payload is known.

        Revalidation re-runs the *next* identical request instead of
        keeping a payload registry: stale entries refresh on first hit
        after the breaker closes, because fresh lookups miss once the TTL
        lapses. Kept as a hook so the policy is visible and testable.
        """
        self.metrics.incr("serve.revalidation_scheduled")

    # ------------------------------------------------------------------
    # Campaigns: submit + poll
    # ------------------------------------------------------------------
    async def _submit_campaign(self, body: Dict[str, Any]) -> Response:
        try:
            validate_payload("campaign", body)
            deadline = Deadline.from_timeout_ms(body.get("deadline_ms"))
        except ReproError as exc:
            self.metrics.incr("http.bad_request")
            return 400, {"error": str(exc)}, {}
        campaign_id = canonical_key("campaign", body)
        existing = self._campaigns.get(campaign_id)
        if existing is not None and existing["status"] in (
            "queued",
            "running",
            "completed",
        ):
            # Idempotent resubmission: same payload, same campaign.
            return 200, self._campaign_view(existing), {}

        payload = self._job_payload("campaign", body)
        payload["checkpoint_path"] = os.path.join(
            self.spool_dir, f"campaign_{campaign_id}.json"
        )
        record: Dict[str, Any] = {
            "campaign_id": campaign_id,
            "status": "queued",
            "submitted_at": time.monotonic(),
            "trials": body.get("trials"),
            "result": None,
            "error": None,
            "worker_restarts": 0,
        }
        if not self.breaker.allow():
            retry_after = max(1.0, self.breaker.seconds_until_half_open())
            return (
                503,
                {"error": "circuit open; campaign not accepted"},
                {"Retry-After": f"{retry_after:.0f}"},
            )
        request = self.queue.try_submit(
            payload, priority=self._priority_for("campaign", body),
            deadline=deadline,
        )
        self._campaigns[campaign_id] = record
        watcher = asyncio.create_task(self._watch_campaign(record, request))
        self._background.add(watcher)
        watcher.add_done_callback(self._background.discard)
        self.metrics.incr("campaign.submitted")
        return 202, self._campaign_view(record), {}

    async def _watch_campaign(
        self, record: Dict[str, Any], request: QueuedRequest
    ) -> None:
        record["status"] = "running"
        outcome = await request.future
        if isinstance(outcome, Shed):
            self.breaker.record_discard()
            record["status"] = "shed"
            record["error"] = (
                f"queue refused the campaign ({outcome.reason}); resubmit"
            )
            self.metrics.incr("campaign.shed")
            return
        if isinstance(outcome, QueueTimeout):
            self.breaker.record_discard()
            record["status"] = "timeout"
            record["error"] = "deadline expired while queued"
            self.metrics.incr("campaign.timeout")
            return
        result: JobResult = outcome
        record["worker_restarts"] = result.restarts
        if result.ok:
            self.breaker.record_success()
            record["status"] = "completed"
            record["result"] = result.result
            self.metrics.incr("campaign.completed")
            if result.restarts:
                self.metrics.incr("campaign.completed_after_crash")
        elif result.status == "timeout":
            self.breaker.record_failure()
            record["status"] = "timeout"
            record["error"] = result.error
            self.metrics.incr("campaign.timeout")
        elif result.status == "cancelled":
            self.breaker.record_discard()
            record["status"] = "cancelled"
            record["error"] = result.error
            self.metrics.incr("campaign.cancelled")
        else:
            self.breaker.record_failure()
            record["status"] = "failed"
            record["error"] = result.error
            self.metrics.incr("campaign.failed")

    def _campaign_view(self, record: Dict[str, Any]) -> Dict[str, Any]:
        view = {
            "campaign_id": record["campaign_id"],
            "status": record["status"],
            "trials": record["trials"],
            "worker_restarts": record["worker_restarts"],
        }
        if record["result"] is not None:
            view["result"] = record["result"]
        if record["error"] is not None:
            view["error"] = record["error"]
        return view

    def _campaign_status(self, campaign_id: str) -> Response:
        record = self._campaigns.get(campaign_id)
        if record is None:
            return 404, {"error": f"unknown campaign {campaign_id!r}"}, {}
        return 200, self._campaign_view(record), {}

    # ------------------------------------------------------------------
    # Health and metrics
    # ------------------------------------------------------------------
    async def readiness(self) -> Response:
        """Readiness: live workers, queue headroom, breaker closed.

        A non-closed breaker is probed here (a cheap ``ping`` bypassing
        the admission queue), so recovery needs no client traffic: the
        next readiness poll after ``reset_timeout`` drives the half-open
        transition and, on success, closes the breaker.
        """
        reasons: List[str] = []
        if self.pool.live_workers == 0:
            reasons.append("no live workers")
        if self.queue.depth >= self.queue.capacity:
            reasons.append("admission queue full")
        if self.breaker.state != CLOSED and self.breaker.allow():
            probe = await self.pool.run_direct(
                "ping", {}, Deadline.after(1.0)
            )
            if probe.ok:
                self.breaker.record_success()
            else:
                self.breaker.record_failure()
        if self.breaker.state != CLOSED:
            reasons.append(f"breaker {self.breaker.state}")
        body = {
            "ready": not reasons,
            "reasons": reasons,
            "queue_depth": self.queue.depth,
            "breaker": self.breaker.state,
            "live_workers": self.pool.live_workers,
        }
        return (200 if not reasons else 503), body, {}

    def snapshot(self) -> Dict[str, Any]:
        """Everything ``/metrics`` reports."""
        store = self.store.stats()
        return self.metrics.snapshot(
            extra={
                "queue": {
                    "depth": self.queue.depth,
                    "capacity": self.queue.capacity,
                    "by_class": self.queue.depth_by_class(),
                    "shed_total": self.queue.shed_total,
                    "evicted_total": self.queue.evicted_total,
                    "expired_in_queue_total": self.queue.expired_in_queue_total,
                    "admitted_total": self.queue.admitted_total,
                    "retry_after_hint": self.queue.retry_after_hint(),
                },
                "breaker": self.breaker.snapshot(),
                "pool": self.pool.snapshot(),
                "store": {
                    "fresh_hits": store.fresh_hits,
                    "stale_hits": store.stale_hits,
                    "misses": store.misses,
                    "evictions": store.evictions,
                    "currsize": store.currsize,
                    "maxsize": store.maxsize,
                    "hit_rate": store.hit_rate,
                },
                "campaigns": {
                    "tracked": len(self._campaigns),
                    "by_status": self._campaigns_by_status(),
                },
            }
        )

    def _campaigns_by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self._campaigns.values():
            counts[record["status"]] = counts.get(record["status"], 0) + 1
        return counts
