"""Guarded false positive: the parallel-map module may build its pool."""

from concurrent.futures import ProcessPoolExecutor


def parallel_map(run_chunk, chunks, workers):
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_chunk, chunks))
