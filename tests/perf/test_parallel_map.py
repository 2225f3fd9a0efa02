"""The seeded parallel map under Monte Carlo and packet replicas.

Bit identity through it is pinned by the estimator and replica suites
(``tests/simulation/test_parallel.py``, ``tests/perf/test_shared_replicas.py``);
these tests pin the map's own contract: job order, the chunk rule, and
that a failing chunk does not wait for chunks no worker has started.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.perf.parallel import chunked, parallel_map


def _jobs(count):
    return list(enumerate(np.random.SeedSequence(7).spawn(count)))


def _offset(base):
    return base


def _draw(offset, job):
    index, seed = job
    return index, offset + float(np.random.default_rng(seed).random())


def _fail_first_else_mark(directory, job):
    index, _ = job
    if index == 0:
        raise RuntimeError("job 0 fails")
    time.sleep(0.05)
    open(os.path.join(directory, str(index)), "w").close()


@pytest.mark.parametrize("workers", [2, 3])
def test_results_in_job_order_for_any_worker_count(workers):
    jobs = _jobs(10)
    serial = list(parallel_map(jobs, _draw, 1, _offset, (1.0,)))
    assert [index for index, _ in serial] == list(range(10))
    assert list(parallel_map(jobs, _draw, workers, _offset, (1.0,))) == serial


def test_chunks_are_contiguous_about_four_per_worker():
    jobs = _jobs(10)
    assert [len(chunk) for chunk in chunked(jobs, 2)] == [2, 2, 2, 2, 2]
    assert [len(chunk) for chunk in chunked(jobs, 3)] == [1] * 10
    assert [job for chunk in chunked(jobs, 2) for job in chunk] == jobs


def test_worker_error_cancels_unstarted_chunks(tmp_path):
    jobs = _jobs(40)
    with pytest.raises(RuntimeError, match="job 0 fails"):
        list(parallel_map(jobs, _fail_first_else_mark, 2, str, (str(tmp_path),)))
    # Eight chunks of 5 jobs. The first chunk stops at its failing job;
    # the 35 jobs of the other seven (0.05 s each) would all run if the
    # pool waited for them, but those not started yet are cancelled.
    assert len(os.listdir(tmp_path)) < 35
