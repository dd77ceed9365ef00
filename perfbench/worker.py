"""One benchmark process: set a workload up, say "ready", run whole rounds
until the time is spent, check the outputs and write ``worker.json``.

Started by run.py, which times the set-up from outside.  With
``--setup-only`` it stops after "ready".  With ``--trace 1`` it alternates
untraced rounds with rounds under the tracer, so the tracing overhead is
measured inside one process.

Times are means over the rounds, leaving out the first.  This host runs
a busy core at full speed for about two seconds and then at roughly half
speed, alternating between two throttled levels every few seconds: the
first round absorbs the burst, and the mean weighs both throttled levels
by the time spent in each, where a median would jump between them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import gcmi  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # numpy before 1.25 has no mode="dicts"
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
    }


def run_rounds(workload, seconds: float) -> list:
    """Whole rounds until the next one would not end within ``seconds``."""
    start = time.perf_counter()
    rounds = []
    while True:
        if rounds and time.perf_counter() - start + statistics.median(r.wall_s for r in rounds) > seconds:
            return rounds
        rounds.append(workload.run_round())


def mean(rounds: list, field: str) -> float:
    """Mean of a round measurement, leaving out the warm-up round."""
    return statistics.mean(getattr(r, field) for r in rounds[1:] or rounds)


def nn_microbench() -> dict:
    """Median microseconds per call of the public nn functions at the
    generator shapes of impute_continuous (batch 256, one hidden layer)."""
    from gcmi.gcin import TrainConfig, scale_architecture
    from gcmi.nn import adam_new, adam_step, backward_with_input_grads, forward, mlp_new

    wl = workloads.ImputeContinuous
    in_dim = wl.P + TrainConfig().noise_dim
    net = mlp_new(in_dim, scale_architecture(wl.N, wl.P + 1), 1, "identity", seed=1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((256, in_dim))
    g = rng.standard_normal((256, 1)) / 256
    state = adam_new(net, 1e-3, 1e-4)
    grads, _ = backward_with_input_grads(net, x, g)
    calls = {
        "nn.forward_us": lambda: forward(net, x),
        "nn.backward_us": lambda: backward_with_input_grads(net, x, g),
        "nn.adam_step_us": lambda: adam_step(net, grads, state),
    }
    out = {}
    for name, fn in calls.items():
        for _ in range(50):
            fn()
        blocks = []
        for _ in range(9):
            t0 = time.perf_counter()
            for _ in range(100):
                fn()
            blocks.append((time.perf_counter() - t0) / 100 * 1e6)
        out[name] = statistics.median(blocks)
    return out


def trace_rounds(workload, args, metrics: dict) -> tuple[list, list]:
    """Untraced and traced rounds in alternation after one warm-up round,
    so that the host's drift falls on both alike; the per-layer metrics
    from the traced ones go into ``metrics``."""
    import tracing

    metrics.update(nn_microbench())
    tracer = tracing.Tracer(args.out / "spans" / "setup").install()
    workload.build(args.seed, args.out)
    tracer.close()
    tracer.out_dir = args.out / "spans" / "rounds"
    tracer.out_dir.mkdir(parents=True, exist_ok=True)
    plain_cli = getattr(workload, "cli_argv_prefix", None)  # cli_mixed runs the command line in its own process
    traced_cli = [sys.executable, str(HERE / "cli_traced.py"), str(tracer.out_dir)]

    start = time.perf_counter()
    untraced, traced = [workload.run_round()], []
    while not traced or time.perf_counter() - start + untraced[-1].wall_s + traced[-1].wall_s <= args.seconds:
        untraced.append(workload.run_round())
        tracer.install()
        if plain_cli:
            workload.cli_argv_prefix = traced_cli
        traced.append(workload.run_round())
        tracer.uninstall()
        if plain_cli:
            workload.cli_argv_prefix = plain_cli
    tracer.close()
    setup = tracing.Spans(tracing.load(args.out / "spans" / "setup"))
    metrics.update(tracing.derive(setup, tracing.Spans(tracing.load(tracer.out_dir)), len(traced)))
    return untraced, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(gcmi.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gcmi was imported from {gcmi.__file__}, not from this checkout", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    workload.build(args.seed, args.out)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    metrics = {}
    if not args.trace:
        rounds = run_rounds(workload, args.seconds)
    else:
        untraced, traced = trace_rounds(workload, args, metrics)
        workers = getattr(workload, "WORKERS", 1)
        metrics["benchmark.busy_share"] = mean(untraced, "cpu_s") / (workers * mean(untraced, "wall_s"))
        metrics["data.csv_mb"] = traced[-1].csv_bytes / 1e6
        metrics["trace.overhead"] = statistics.mean(r.wall_s for r in traced) / mean(untraced, "wall_s") - 1.0
        rounds = untraced + traced

    last = rounds[-1]
    verdict = workload.check(last)
    failed = 0
    for k, r in enumerate(rounds):
        if r.digest == last.digest:
            failed += verdict.failed
        else:
            failed += r.datasets
            verdict.problems.append(f"round {k} output differs from round {len(rounds) - 1}")
    if not args.trace:
        wall = mean(rounds, "wall_s")
        metrics = {
            "wall_s": wall,
            "cpu_s": mean(rounds, "cpu_s"),
            "cells_per_s": workload.cells() / wall,
            "rmse": verdict.reference.get("rmse"),  # absent only when datasets failed
            "peak_rss_mb": max(r.peak_rss_kb for r in rounds) / 1024,
        }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": sum(r.datasets for r in rounds),
        "failed": failed,
        "problems": verdict.problems,
        "reference": verdict.reference,
        "metrics": metrics,
        "rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_kb": r.peak_rss_kb} for r in rounds],
        "env": environment(),
    }
    (args.out / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
