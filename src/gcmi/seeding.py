"""Deterministic seed derivation and the one process pool.

Every stochastic routine in the library takes its randomness from a
generator addressed by ``(root_seed, *path)`` where the path is a fixed
tuple of small non-negative integers naming the consumer (chain index,
sweep index, column index, ...).  Derivation is order-independent, so
parallel workers and serial runs produce identical streams: the same seed
gives the same output at any worker count.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Iterator
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor

import numpy as np

_U64 = (1 << 64) - 1


def canonical_seed(seed: int) -> int:
    """Map an arbitrary Python int (possibly negative) onto [0, 2^64)."""
    return int(seed) & _U64


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Child generator for ``seed`` addressed by an integer path."""
    entropy = [canonical_seed(seed)] + [int(p) & _U64 for p in path]
    return np.random.default_rng(entropy)


def derive_seed(seed: int, *path: int) -> int:
    """Integer seed in [0, 2^63) for the consumer at ``path`` under ``seed``."""
    return int(spawn_rng(seed, *path).integers(0, 2**63))


def parallel_map(fn, tasks: list[tuple], workers: int) -> Iterator:
    """Yield ``fn(*task)`` for each task, in task order, each as soon as it
    and every task before it are done.

    Runs on a pool of ``min(workers, len(tasks))`` processes when that is
    more than one, and serially otherwise; the pool starts all its workers
    at the first task, so it never gets more than there are tasks.  The
    pool is handed one task per worker, and the next task whenever one
    finishes (whether or not the consumer has taken the results before
    it), so at most ``workers`` tasks are ever handed on and not done.
    When the consumer stops early (closes the generator, say after a
    failed write), no further task starts; those already running finish
    first.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        for task in tasks:
            yield fn(*task)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    results = [Future() for _ in tasks]
    queued = iter(enumerate(tasks))
    lock = threading.Lock()
    stopped = False

    def start_next() -> None:
        # called once per worker, then from each finished task's callback
        with lock:
            if stopped:
                return
            i, task = next(queued, (None, None))
            if task is None:
                return
            try:
                future = pool.submit(fn, *task)
            except BrokenExecutor as exc:  # a worker died: report it in task order
                results[i].set_exception(exc)
                return
        future.add_done_callback(functools.partial(finish, i))

    def finish(i: int, done: Future) -> None:
        start_next()  # first, so the freed worker never waits on the consumer
        if done.cancelled():  # only at shutdown, once the consumer has stopped
            return
        if done.exception() is None:
            results[i].set_result(done.result())
        else:
            results[i].set_exception(done.exception())

    try:
        for _ in range(workers):
            start_next()
        for result in results:
            yield result.result()
    finally:
        with lock:
            stopped = True
        pool.shutdown(cancel_futures=True)
