"""The seed tree and the one process pool.

Seeds: only ``gcmi.seeding`` builds a generator, and no two generators of
a run start from the same state.  Pool: only ``gcmi.seeding`` builds one;
results come in task order, a worker freed by a finished task gets the
next one while the consumer waits for a result, no queued task starts
once the consumer stops, and ``gcmi_impute`` never hands the pool more
tasks than workers."""

import ast
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import gcmi.chained
from gcmi import GcmiConfig, gcmi_impute
from gcmi.seeding import parallel_map

from test_chained import TINY_TRAIN, mixed_matrix

SRC = Path(__file__).resolve().parents[1] / "src" / "gcmi"

# names that build a generator, a bit generator or a seed sequence
_BUILDERS = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

# names that start a process, a thread or a pool of either
_POOLS = {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool", "Process", "Thread"}


def _name(node):
    """The last identifier of a name or attribute chain, else ''."""
    return getattr(node, "id", None) or getattr(node, "attr", "")


def _violations(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text(), path.name)):
        if isinstance(node, ast.Call) and _name(node.func) in _BUILDERS:
            out.append(f"{path.name}:{node.lineno}: builds a generator ({_name(node.func)})")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
            if any("seed" in _name(side).lower() for side in (node.left, node.right)):
                out.append(f"{path.name}:{node.lineno}: ^ on a seed")
    return out


def _pool_calls(path):
    return [
        f"{path.name}:{node.lineno}: starts {_name(node.func)}"
        for node in ast.walk(ast.parse(path.read_text(), path.name))
        if isinstance(node, ast.Call) and _name(node.func) in _POOLS
    ]


def test_only_the_seeding_module_builds_generators():
    # every other module takes its generators from spawn_rng and hands on
    # derive_seed of an address: a seed made by arithmetic can land on
    # another consumer's stream
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "seeding.py")
    assert modules
    assert [v for path in modules for v in _violations(path)] == []


def test_only_the_seeding_module_starts_workers():
    # every worker runs under parallel_map, which alone keeps results in
    # task order and bounds the tasks handed out; naming an executor's
    # exception (cli catches BrokenExecutor) starts nothing
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "seeding.py")
    assert modules
    assert [v for path in modules for v in _pool_calls(path)] == []
    # the guard sees the one pool there is
    seeding = [v.split(": ")[1] for v in _pool_calls(SRC / "seeding.py")]
    assert seeding == ["starts ProcessPoolExecutor"]


def test_no_two_generators_of_a_run_start_alike(monkeypatch):
    # every generator a run builds, caught where numpy builds it: two
    # chains in one group over two sweeps (cold fits, then warm ones) and
    # continuous, binary and categorical columns.  Two generators in one
    # state would give one consumer another's draws
    built = []
    default_rng = np.random.default_rng

    def recorded(seed=None):
        rng = default_rng(seed)
        state = rng.bit_generator.state["state"]
        built.append((state["state"], state["inc"]))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recorded)
    dm, _ = mixed_matrix(n=60, seed=4)
    assert dm.mask.any(axis=0).all()  # every column is refit in every sweep
    cfg = GcmiConfig(m_imputations=2, max_chain_iters=2, train=TINY_TRAIN, seed=11)
    result = gcmi_impute(dm, cfg)
    assert [len(trace) for trace in result.traces] == [2, 2]
    # at least a fit seed, a minibatch stream and an imputation per fit
    assert len(built) >= 3 * 2 * 2 * 4
    assert len(set(built)) == len(built)


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


def test_freed_workers_are_fed_while_the_consumer_waits(tmp_path):
    # task 0 outlasts the others: while the consumer waits for it, each
    # worker that finishes a short task takes the next one
    tasks = [(tmp_path, k, 0.6 if k == 0 else 0.1) for k in range(4)]
    results = parallel_map(_started, tasks, 2)
    assert next(results) == 0
    assert len(list(tmp_path.iterdir())) == 4
    assert list(results) == [1, 2, 3]


@pytest.mark.parametrize("m,workers", list(product([1, 2, 5], [1, 2, 4])))
def test_gcmi_impute_hands_the_pool_no_more_tasks_than_workers(monkeypatch, m, workers):
    # parallel_map feeds a freed worker only while its consumer waits for
    # a result, and gcmi_impute's consumer writes a table between results:
    # it keeps no worker idle by handing out all its work at the start
    calls = []
    real = gcmi.chained.parallel_map

    def recorded(fn, tasks, n_workers):
        calls.append((len(tasks), n_workers))
        return real(fn, tasks, n_workers)

    monkeypatch.setattr(gcmi.chained, "parallel_map", recorded)
    dm, _ = mixed_matrix(n=40, seed=2)
    cfg = GcmiConfig(m_imputations=m, max_chain_iters=1, train=TINY_TRAIN, seed=3, workers=workers)
    result = gcmi_impute(dm, cfg)
    assert len(result.completed) == m
    assert len(calls) == 1
    n_tasks, n_workers = calls[0]
    assert n_workers == workers
    assert 1 <= n_tasks <= workers
