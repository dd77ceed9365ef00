"""Deterministic seed derivation and the one process pool.

Every stochastic routine in the library takes its randomness from a
generator addressed by ``(root_seed, *path)`` where the path is a fixed
tuple of small non-negative integers naming the consumer (chain index,
sweep index, column index, ...).  Derivation is order-independent, so
parallel workers and serial runs produce identical streams: the same seed
gives the same output at any worker count.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor

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
    at the first task, so it never gets more than there are tasks.  When
    the consumer stops early (closes the generator, say after a failed
    write), the tasks the pool has not yet handed to its workers are
    cancelled and never start; those running or queued for the workers
    (at most twice as many as there are workers, plus one) finish first.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        for task in tasks:
            yield fn(*task)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(fn, *zip(*tasks))
    finally:
        pool.shutdown(cancel_futures=True)
