"""Deterministic seed derivation and the one process pool.

Every stochastic routine in the library takes its randomness from a
generator addressed by ``(root_seed, *path)`` where the path is a fixed
tuple of small non-negative integers naming the consumer (chain index,
sweep index, column index, ...).  Derivation is order-independent, so
parallel workers and serial runs produce identical streams: the same seed
gives the same output at any worker count.  This module alone turns a seed
into a generator (``spawn_rng``).

The addresses, each under the seed on its left:

===============  ===================  ====================================
seed             path                 consumer
===============  ===================  ====================================
run              ``(0, i)``           chain ``i``: its chain seed
chain            ``(sweep, column)``  one column fit: its fit seed ``s``
fit ``s``        ``()``               generator initialisation
fit ``s``        ``(1,)``             discriminator initialisation
fit ``s``        ``(2,)``             minibatches and noise
fit ``s``        ``(3,)``             imputation draws
benchmark        ``(100, r)``         repeat ``r``: its simulation seed
benchmark        ``(200, r, i)``      repeat ``r``, mechanism ``i``: its
                                      amputation seed
benchmark        ``(300, r, i)``      the same: its gcmi run seed
simulation       ``(0|1|2,)``         data: X, coefficients, noise
amputation       ``(10|11|12,)``      MCAR, MAR, MNAR masks
===============  ===================  ====================================

A consumer given "its ... seed" above receives ``derive_seed`` of the
address, an int it hands on.  Of a fit's streams, the generator's
``mlp_new`` takes the fit seed itself, the discriminator's takes
``derive_seed(s, 1)`` and ``impute_column`` takes ``derive_seed(s, 3)``,
each drawing from ``spawn_rng`` of its int; the minibatches and noise,
like the simulation and amputation streams, draw from ``spawn_rng`` of
their address.  No seed is made by arithmetic on another, which can land
on a stream that is already taken.

Trailing zeros in a path do not change the stream (numpy pads a short
seed with zeros), so ``(s)``, ``(s, 0)`` and ``(s, 0, 0)`` are one
address; no two consumers under one seed above differ only by them.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Iterator
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor

import numpy as np

_U64 = (1 << 64) - 1


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Child generator for ``seed`` addressed by an integer path; the seed
    and each entry may be any int (taken modulo 2^64)."""
    return np.random.default_rng([int(x) & _U64 for x in (seed, *path)])


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
