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

``parallel_map`` is the one process pool: it runs the chains' groups of
``gcmi_impute`` and the repeats of ``run_benchmark``, and yields results
in task order.  It hands out the tasks from its own loop: a worker freed
by a finished task gets the next one while the consumer waits for a
result, never while the consumer is busy between results.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterator
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

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
    generator hands out the tasks itself: one per worker at the start,
    and, while it waits for the next result in task order, the next task
    to each worker whose task has finished.  So at most ``workers`` tasks
    are ever handed out and not done, and a worker freed while the
    consumer is busy between results waits for the consumer's next
    request.  When the consumer stops early (closes the generator, say
    after a failed write), no further task starts; those already running
    finish first.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        for task in tasks:
            yield fn(*task)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    queued = iter(tasks)
    futures, running = deque(), set()  # handed out and not yielded; not done
    try:
        for _ in tasks:
            while True:
                running = {f for f in running if not f.done()}
                for task in itertools.islice(queued, workers - len(running)):
                    futures.append(pool.submit(fn, *task))
                    running.add(futures[-1])
                if futures[0].done():
                    break
                wait(running, return_when=FIRST_COMPLETED)
            yield futures.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
