"""The one process pool: results in task order as they arrive, freed
workers fed without waiting for the consumer, and no queued task started
once the consumer stops."""

import time
from pathlib import Path

import pytest

from gcmi.seeding import parallel_map


def _started(directory, k, seconds):
    Path(directory, f"{k:02d}").touch()
    time.sleep(seconds)
    return k


@pytest.mark.parametrize("workers", [1, 2])
def test_yields_results_in_task_order(tmp_path, workers):
    # the first task is the slowest, so later ones finish before it
    tasks = [(tmp_path, k, 0.3 if k == 0 else 0.0) for k in range(5)]
    assert list(parallel_map(_started, tasks, workers)) == list(range(5))


@pytest.mark.parametrize("workers", [1, 2])
def test_consumer_stopping_early_starts_no_queued_task(tmp_path, workers):
    tasks = [(tmp_path, k, 0.0 if k == 0 else 0.5) for k in range(12)]
    results = parallel_map(_started, tasks, workers)
    assert next(results) == 0
    results.close()  # returns once the tasks already handed on are done
    started = sorted(p.name for p in tmp_path.iterdir())
    # serially nothing runs ahead; a pool of two holds at most two tasks
    # not done: the first one's worker took the third task when it finished
    assert len(started) <= (1 if workers == 1 else 3)
    time.sleep(0.6)
    assert sorted(p.name for p in tmp_path.iterdir()) == started


def test_freed_workers_do_not_wait_for_the_consumer(tmp_path):
    tasks = [(tmp_path, k, 0.2) for k in range(4)]
    results = parallel_map(_started, tasks, 2)
    assert next(results) == 0
    time.sleep(0.5)  # a slow consumer: the two freed workers took tasks 2 and 3
    assert len(list(tmp_path.iterdir())) == 4
    assert list(results) == [1, 2, 3]
