"""Guarded false positives: process and thread work that is not a pool."""

import multiprocessing
from concurrent.futures import ThreadPoolExecutor


class WorkerPool:
    """A supervised set of long-lived workers, named like a pool."""

    def __init__(self, target):
        # One supervised Process per worker: not a map, not flagged.
        self._ctx = multiprocessing.get_context("spawn")
        self.process = self._ctx.Process(target=target, daemon=True)


def start_workers(target):
    return WorkerPool(target)


def run_in_threads(task, items):
    with ThreadPoolExecutor(max_workers=2) as threads:
        return list(threads.map(task, items))
