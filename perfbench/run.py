"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gcmi is imported from its ``src``.  The
last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  The full record, with the environment, every round and
the reference figures of the checks, goes to
``perfbench/out/<workload>-s<seed>-t<trace>/result.json``.

This process imports neither numpy nor gcmi.  It starts worker.py once to
measure, then ten pairs of set-up-only workers, timing each from launch
to its "ready" line; ``setup_s`` is the shortest of those twenty set-ups.
Every process it starts runs with one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("impute_continuous", "cli_mixed", "mc_grid")
SETUP_PAIRS = 10  # pairs of set-up-only workers timed after the measuring one
TIME_LIMIT_S = 170.0


class Worker:
    """worker.py in its own process group, killed if the run's time is up."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.start = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.timer = threading.Timer(max(deadline - self.start, 0.0), self.kill)
        self.timer.start()

    def ready(self) -> float | None:
        """Seconds from launch to the worker's "ready <monotonic clock>"
        line, or None if it never got there; the clock is system-wide, so
        reading the line late does not lengthen the set-up."""
        word, _, clock = self.proc.stdout.readline().partition(" ")
        return float(clock) - self.start if word == "ready" else None

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self) -> int:
        self.proc.communicate()
        self.timer.cancel()
        if self.proc.returncode != 0:
            self.kill()  # take down anything it left behind
        return self.proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "gcmi" / "__init__.py").is_file():
        print(f"no gcmi sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    run_dir = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    work_dir = run_dir / "work"
    worker = Worker(
        [*common, "--out", str(work_dir), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env,
        deadline,
    )
    ready = worker.ready()
    code = worker.finish()
    if code != 0 or ready is None:
        print(f"worker exited {code}", file=sys.stderr)
        return code or 1
    result = json.loads((work_dir / "worker.json").read_text())
    # Timed after the rounds and two at a time, so that each set-up meets
    # the host as the rounds did: under sustained load on both cores.  The
    # shortest is reported: within a run, set-ups on this host fall into a
    # fast and a slow level some 40 % apart, and a median jumps between them.
    setups = []
    for pair in range(0 if args.trace else SETUP_PAIRS):
        dirs = [run_dir / f"setup{pair}-{k}" for k in range(2)]
        probes = [Worker([*common, "--out", str(d), "--setup-only"], env, deadline) for d in dirs]
        times = [p.ready() for p in probes]
        if [p.finish() for p in probes] != [0, 0] or None in times:
            print("a set-up-only worker failed", file=sys.stderr)
            return 1
        setups += times
        for d in dirs:
            shutil.rmtree(d)
    if not args.trace:
        result["metrics"]["setup_s"] = min(setups)
        result["setup_samples"] = setups
    for path in work_dir.iterdir():  # keep the record and the spans, drop the data
        if (path.is_file() and path.suffix in (".csv", ".txt")) or path.name.endswith("_out"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(result["metrics"]):
        print(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    correct = not result["problems"]
    print("env: " + json.dumps(result["env"]))
    print("reference: " + json.dumps(result["reference"]))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
