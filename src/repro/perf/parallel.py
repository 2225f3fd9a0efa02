"""One seeded parallel map for embarrassingly parallel jobs.

Monte Carlo trials (:mod:`repro.simulation.monte_carlo`) and packet
replicas (:func:`repro.perf.fastsim.run_packet_replicas`) share one
shape: the parent pre-spawns one :class:`~numpy.random.SeedSequence` per
job, in job order, and each job's result is a function of its seed and
of state every job reads but none writes. :func:`parallel_map` runs such
jobs either in-process or over one
:class:`~concurrent.futures.ProcessPoolExecutor`, and yields results in
job order either way, so outputs do not depend on ``workers``.

``setup(*setup_args)`` builds the shared state once per process (the
parent, or each pool worker), and ``run_one(state, job)`` runs one job.
Both must be module-level so a worker can unpickle them.

The pool gets jobs in contiguous chunks, about :data:`CHUNKS_PER_WORKER`
per worker (:func:`chunked`): few enough to amortize per-task pickling,
enough to keep every worker busy while the slowest chunk finishes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CampaignInterrupted, SimulationError

#: ``(job_index, job_seed)``: one pre-spawned job.
Job = Tuple[int, np.random.SeedSequence]

#: Chunks the pool hands each worker (the last chunk may be short).
CHUNKS_PER_WORKER = 4


def check_count(name: str, value: Any, minimum: int = 0) -> None:
    """Require an int (not a bool) of at least ``minimum``.

    Raises :class:`~repro.errors.SimulationError` otherwise, so a bad
    ``workers``/``replicas``/``trials`` is a typed error, not a bare
    ``TypeError`` from a later comparison.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise SimulationError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise SimulationError(f"{name} must be >= {minimum}, got {value}")


def resolve_workers(workers: int) -> int:
    """Worker-process count, with ``0`` meaning every core."""
    return workers or os.cpu_count() or 1


def chunked(jobs: Sequence[Job], workers: int) -> List[Sequence[Job]]:
    """Split ``jobs`` into contiguous chunks, ~4 per worker."""
    size = max(1, math.ceil(len(jobs) / (workers * CHUNKS_PER_WORKER)))
    return [jobs[start : start + size] for start in range(0, len(jobs), size)]


#: A pool worker's ``(run_one, state)``, installed by :func:`_init_worker`.
_worker: Dict[str, Any] = {}


def _init_worker(
    setup: Callable[..., Any],
    setup_args: Tuple[Any, ...],
    run_one: Callable[[Any, Job], Any],
) -> None:
    _worker["run_one"] = run_one
    _worker["state"] = setup(*setup_args)


def _run_chunk(chunk: Sequence[Job]) -> List[Any]:
    run_one, state = _worker["run_one"], _worker["state"]
    return [run_one(state, job) for job in chunk]


def parallel_map(
    jobs: Sequence[Job],
    run_one: Callable[[Any, Job], Any],
    workers: int,
    setup: Callable[..., Any],
    setup_args: Tuple[Any, ...] = (),
    abort_check: Optional[Callable[[], bool]] = None,
) -> Iterator[Any]:
    """Yield ``run_one(state, job)`` for every job, in job order.

    ``workers`` counts processes (``0`` means every core). At 1 the jobs
    run in this process over one ``setup`` call; above 1 they run over a
    pool of at most ``workers`` processes, each calling ``setup`` once.

    ``abort_check`` is polled before each chunk is taken; in-process a
    chunk is one job. When it returns True, the chunks no worker has
    started are cancelled, the results of those already running are
    still yielded (the pool waits for them anyway), and
    :class:`~repro.errors.CampaignInterrupted` is raised. Everything
    yielded before the raise is a prefix of the job order. An error
    raised by ``run_one`` in a worker also cancels the chunks not yet
    started before it propagates.
    """
    workers = resolve_workers(workers)
    if workers == 1:
        state = setup(*setup_args)
        for job in jobs:
            if abort_check is not None and abort_check():
                raise _interrupted()
            yield run_one(state, job)
        return
    chunks = chunked(jobs, workers)
    if not chunks:
        return
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_init_worker,
        initargs=(setup, setup_args, run_one),
    ) as pool:
        futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
        try:
            for done, future in enumerate(futures):
                if abort_check is not None and abort_check():
                    started = [f for f in futures[done:] if not f.cancel()]
                    for later in started:
                        yield from later.result()
                    raise _interrupted()
                yield from future.result()
        finally:
            # A chunk's error (or a caller that stops early) must not wait
            # for the chunks no worker has started.
            for future in futures:
                future.cancel()


def _interrupted() -> CampaignInterrupted:
    return CampaignInterrupted(
        "aborted between jobs; every result before the abort was "
        "delivered, and the remaining jobs can be resumed"
    )
