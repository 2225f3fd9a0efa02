"""Supervised process worker pool with crash recovery and cancellation.

Each worker is a separate OS process joined to the parent by a duplex
pipe. The parent side runs one asyncio dispatch loop per worker slot;
the blocking pipe protocol is driven inside a thread executor so the
event loop never waits on a worker. The robustness contract:

* **deadline propagation** — the worker receives the remaining budget at
  dispatch and aborts its job cooperatively (checkpoint-flushed) when it
  runs out; the parent escalates to SIGKILL ``deadline_grace`` seconds
  past the deadline, so a wedged worker cannot hold a request forever;
* **cooperative cancellation** — the parent can send ``cancel`` mid-job;
  the worker polls for it between Monte-Carlo trials via the
  ``abort_check`` hook of :meth:`MonteCarloEstimator.estimate`;
* **supervisor respawn** — a dead worker (crash, chaos kill, OOM) is
  respawned and the interrupted job re-dispatched with decorrelated-
  jitter backoff; campaigns resume from their checkpoint, so the final
  aggregates are bit-identical to an undisturbed run;
* **bounded retries** — a job that keeps killing workers is failed after
  ``max_restarts_per_job`` attempts instead of crash-looping the pool.

Nothing here knows about HTTP; the pool consumes
:class:`~repro.service.admission.QueuedRequest` objects and resolves
their futures with :class:`JobResult`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import multiprocessing.connection
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.errors import CampaignInterrupted, ReproError, ServiceError
from repro.resilience.retry import RetryPolicy
from repro.service.admission import AdmissionQueue, QueuedRequest
from repro.service.deadline import DEFAULT_GRACE, Deadline
from repro.service.jobs import execute_job
from repro.service.metrics import ServiceMetrics
from repro.utils.seeding import SeedSequenceFactory

#: Sentinel returned by the pipe driver when the worker process died.
_WORKER_DIED = object()

#: Backoff between re-dispatch attempts after a worker crash. Decorrelated
#: jitter (satellite of this PR) keeps a fleet of dispatch loops from
#: hammering respawned workers in lockstep after a correlated kill.
RESPAWN_BACKOFF = RetryPolicy(
    backoff_base=0.05, backoff_factor=3.0, decorrelated=True, max_backoff=1.0
)


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs for :class:`WorkerPool`."""

    workers: int = 2
    spool_dir: Optional[str] = None
    deadline_grace: float = DEFAULT_GRACE
    max_restarts_per_job: int = 3
    poll_interval: float = 0.02
    supervisor_interval: float = 0.25
    shutdown_timeout: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.deadline_grace <= 0:
            raise ServiceError(
                f"deadline_grace must be > 0, got {self.deadline_grace}"
            )
        if self.max_restarts_per_job < 0:
            raise ServiceError(
                f"max_restarts_per_job must be >= 0, "
                f"got {self.max_restarts_per_job}"
            )


@dataclasses.dataclass
class JobResult:
    """Terminal outcome of one dispatched job."""

    status: str  # ok | error | cancelled | timeout | crashed
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    restarts: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------


def _worker_main(conn: multiprocessing.connection.Connection) -> None:
    """Job loop run inside each worker process.

    Control messages (``cancel``, ``shutdown``) may arrive while a job is
    executing; the job's ``abort_check`` drains them between trials, which
    is what makes cancellation cooperative instead of preemptive.
    """
    state = {"shutdown": False}
    while not state["shutdown"]:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        command = message.get("cmd")
        if command == "shutdown":
            break
        if command == "cancel":
            continue  # cancel for a job that already finished; stale.
        if command != "job":
            continue
        conn.send(_run_one_job(conn, message, state))
    conn.close()


def _run_one_job(
    conn: multiprocessing.connection.Connection,
    message: Dict[str, Any],
    state: Dict[str, bool],
) -> Dict[str, Any]:
    job_id = message["job_id"]
    remaining = message.get("remaining")
    deadline_ts = (
        time.monotonic() + float(remaining) if remaining is not None else None
    )
    flags = {"cancelled": False}

    def abort_check() -> bool:
        while conn.poll(0):
            try:
                control = conn.recv()
            except (EOFError, OSError):
                state["shutdown"] = True
                break
            command = control.get("cmd")
            if command == "cancel" and control.get("job_id") == job_id:
                flags["cancelled"] = True
            elif command == "shutdown":
                state["shutdown"] = True
        if flags["cancelled"] or state["shutdown"]:
            return True
        return deadline_ts is not None and time.monotonic() >= deadline_ts

    if abort_check():
        return {"job_id": job_id, "status": "cancelled", "error": "expired"}
    try:
        result = execute_job(
            message["kind"],
            message["payload"],
            checkpoint_path=message.get("checkpoint_path"),
            abort_check=abort_check,
        )
    except CampaignInterrupted as exc:
        return {"job_id": job_id, "status": "cancelled", "error": str(exc)}
    except ReproError as exc:
        return {
            "job_id": job_id,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
        }
    except Exception as exc:  # noqa: BLE001 — worker must never die on a job
        return {
            "job_id": job_id,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
        }
    return {"job_id": job_id, "status": "ok", "result": result}


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[multiprocessing.connection.Connection] = None
        self.lock = asyncio.Lock()
        self.jobs_completed = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """N supervised worker processes consuming an admission queue."""

    def __init__(
        self,
        config: PoolConfig = PoolConfig(),
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics or ServiceMetrics()
        # "spawn" keeps respawn safe from a threaded parent (fork can
        # inherit held locks) and behaves identically across platforms.
        self._ctx = multiprocessing.get_context("spawn")
        self._handles = [_WorkerHandle(slot) for slot in range(config.workers)]
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers + 1, thread_name_prefix="pool-drive"
        )
        self._backoff_rng = SeedSequenceFactory(config.seed).generator()
        self._job_counter = 0
        self._running = False
        self._tasks: List["asyncio.Task[None]"] = []
        self._queue: Optional[AdmissionQueue] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, queue: AdmissionQueue) -> None:
        """Spawn workers and begin consuming ``queue``."""
        if self._running:
            raise ServiceError("pool already started")
        self._running = True
        self._queue = queue
        loop = asyncio.get_running_loop()
        for handle in self._handles:
            await loop.run_in_executor(self._executor, self._spawn, handle)
        self._tasks = [
            asyncio.create_task(
                self._dispatch_loop(handle), name=f"pool-slot-{handle.slot}"
            )
            for handle in self._handles
        ]
        self._tasks.append(
            asyncio.create_task(self._supervise(), name="pool-supervisor")
        )

    async def stop(self) -> None:
        """Stop dispatching, shut workers down, kill stragglers."""
        self._running = False
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks = []
        deadline = time.monotonic() + self.config.shutdown_timeout
        for handle in self._handles:
            if handle.conn is not None:
                try:
                    handle.conn.send({"cmd": "shutdown"})
                except (BrokenPipeError, OSError):
                    pass
        loop = asyncio.get_running_loop()
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            await loop.run_in_executor(
                self._executor, self._reap, process, deadline
            )
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _reap(
        process: multiprocessing.process.BaseProcess, deadline: float
    ) -> None:
        """(Blocking) join a worker by ``deadline``, killing stragglers.

        Runs on the pool's thread executor so :meth:`stop` never parks
        the event loop on a ``Process.join``.
        """
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_workers(self) -> int:
        return sum(1 for handle in self._handles if handle.alive)

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of live workers (the chaos harness kills from this list)."""
        return [
            handle.process.pid
            for handle in self._handles
            if handle.alive and handle.process is not None
            and handle.process.pid is not None
        ]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "workers": self.config.workers,
            "live_workers": self.live_workers,
            "respawns": self.metrics.count("pool.respawns"),
            "jobs_ok": self.metrics.count("pool.jobs_ok"),
            "jobs_error": self.metrics.count("pool.jobs_error"),
            "jobs_crashed": self.metrics.count("pool.jobs_crashed"),
            "jobs_cancelled": self.metrics.count("pool.jobs_cancelled"),
            "jobs_timeout": self.metrics.count("pool.jobs_timeout"),
        }

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        """(Blocking) start a fresh process+pipe for ``handle``."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-service-worker-{handle.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn

    async def _respawn(self, handle: _WorkerHandle) -> None:
        loop = asyncio.get_running_loop()
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
        if process is not None:
            await loop.run_in_executor(
                self._executor, lambda: process.join(timeout=1.0)
            )
        await loop.run_in_executor(self._executor, self._spawn, handle)
        self.metrics.incr("pool.respawns")

    async def _supervise(self) -> None:
        """Respawn workers that died while idle (chaos kills, OOM)."""
        while self._running:
            await asyncio.sleep(self.config.supervisor_interval)
            for handle in self._handles:
                if handle.lock.locked() or handle.alive:
                    continue
                async with handle.lock:
                    if not handle.alive:
                        await self._respawn(handle)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self, handle: _WorkerHandle) -> None:
        if self._queue is None:  # pragma: no cover - guarded by start()
            raise ServiceError("pool not started")
        while self._running:
            request = await self._queue.get()
            started = time.monotonic()
            async with handle.lock:
                result = await self._execute(handle, request)
            result.duration = time.monotonic() - started
            self.metrics.incr(f"pool.jobs_{result.status}")
            self._queue.observe_service_time(result.duration)
            if not request.future.done():
                request.future.set_result(result)

    async def run_direct(
        self, kind: str, payload: Dict[str, Any], deadline: Deadline
    ) -> JobResult:
        """Run a job outside the admission queue (readiness probes).

        Picks the first idle live worker; if every worker is busy the
        probe is answered from parent state without a worker round-trip.
        """
        for handle in self._handles:
            if handle.lock.locked():
                continue
            async with handle.lock:
                started = time.monotonic()
                request = _DirectRequest(payload={"kind": kind, **payload},
                                         deadline=deadline)
                result = await self._execute(handle, request)
                result.duration = time.monotonic() - started
                return result
        return JobResult(
            status="ok" if self.live_workers else "crashed",
            result={"pong": self.live_workers > 0, "busy": True},
        )

    async def _execute(
        self, handle: _WorkerHandle, request: "QueuedRequest | _DirectRequest"
    ) -> JobResult:
        """Drive one job on ``handle``, surviving worker deaths."""
        loop = asyncio.get_running_loop()
        payload = dict(request.payload)
        kind = payload.pop("kind")
        checkpoint_path = payload.pop("checkpoint_path", None)
        self._job_counter += 1
        job_id = f"job-{self._job_counter}"
        restarts = 0
        previous_delay: Optional[float] = None
        while True:
            if not handle.alive:
                await self._respawn(handle)
            message = {
                "cmd": "job",
                "job_id": job_id,
                "kind": kind,
                "payload": payload,
                "checkpoint_path": checkpoint_path,
                "remaining": request.deadline.remaining(),
            }
            reply = await loop.run_in_executor(
                self._executor, self._drive, handle, request.deadline, message
            )
            if reply is not _WORKER_DIED:
                handle.jobs_completed += 1
                status = reply["status"]
                if status == "cancelled" and request.deadline.expired:
                    status = "timeout"
                return JobResult(
                    status=status,
                    result=reply.get("result"),
                    error=reply.get("error"),
                    restarts=restarts,
                )
            # Worker died mid-job (crash or chaos kill).
            self.metrics.incr("pool.worker_deaths")
            if request.deadline.expired:
                return JobResult(
                    status="timeout",
                    error="worker died and the deadline expired before retry",
                    restarts=restarts,
                )
            if restarts >= self.config.max_restarts_per_job:
                return JobResult(
                    status="crashed",
                    error=(
                        f"worker died {restarts + 1} times executing this "
                        "job; giving up"
                    ),
                    restarts=restarts,
                )
            restarts += 1
            previous_delay = RESPAWN_BACKOFF.delay(
                restarts - 1, self._backoff_rng, previous=previous_delay
            )
            await asyncio.sleep(request.deadline.clamp(previous_delay))

    def _drive(
        self,
        handle: _WorkerHandle,
        deadline: Deadline,
        message: Dict[str, Any],
    ) -> Any:
        """(Blocking, thread executor) pipe round-trip for one job.

        Returns the worker's reply dict, or :data:`_WORKER_DIED`. Past
        ``deadline + grace`` a silent worker is killed — the hard stop
        backing the cooperative cancellation path.
        """
        conn = handle.conn
        process = handle.process
        if conn is None or process is None:
            return _WORKER_DIED
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return _WORKER_DIED
        sent_cancel = False
        while True:
            try:
                ready = conn.poll(self.config.poll_interval)
            except (BrokenPipeError, OSError, EOFError):
                return _WORKER_DIED
            if ready:
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    return _WORKER_DIED
                if reply.get("job_id") == message["job_id"]:
                    return reply
                continue  # stale reply from a pre-respawn job; skip.
            if not process.is_alive():
                return _WORKER_DIED
            remaining = deadline.remaining()
            if remaining is None:
                continue
            if remaining <= 0 and not sent_cancel:
                try:
                    conn.send({"cmd": "cancel", "job_id": message["job_id"]})
                except (BrokenPipeError, OSError):
                    return _WORKER_DIED
                sent_cancel = True
            if remaining <= -self.config.deadline_grace:
                # Cooperative cancel ignored: the worker is wedged. Kill
                # it; the caller maps death + expired deadline to 504.
                process.kill()
                return _WORKER_DIED


@dataclasses.dataclass
class _DirectRequest:
    """Adapter so probes share the `_execute` path with queued requests."""

    payload: Dict[str, Any]
    deadline: Deadline
