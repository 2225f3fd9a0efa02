"""True positives: process pools built outside the parallel-map module."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor


def estimate_in_own_pool(run_chunk, chunks):
    with ProcessPoolExecutor(max_workers=2) as pool:  # TP anchor: executor
        return list(pool.map(run_chunk, chunks))


def replicas_in_own_pool(run_one, jobs):
    with multiprocessing.Pool(2) as pool:  # TP anchor: multiprocessing.Pool
        return pool.map(run_one, jobs)


def pool_from_context(run_one, jobs):
    context = multiprocessing.get_context("fork")
    with context.Pool(2) as pool:  # TP anchor: a context's Pool is a pool too
        return pool.map(run_one, jobs)
