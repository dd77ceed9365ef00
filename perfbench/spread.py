"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workloads impute_continuous cli_mixed mc_grid \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, plus the failed share of the
operations.  The spread check of BENCHMARK.json compares that share with
each end-to-end metric's bound.  All results go to
``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}", file=sys.stderr)
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result.get("metrics", {}).items()), flush=True)

    summary = {}
    for workload, results in runs.items():
        ok = [r for r in results if r.get("metrics")]
        print(f"\n{workload}: {len(ok)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in ok})}")
        for name in ok[0]["metrics"] if ok else []:
            values = [r["metrics"][name]["value"] for r in ok]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if share < bound / 3 else 'WIDE'}"
            print(f"  {name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.4f}{flag}")
            summary.setdefault(workload, {})[name] = {"median": med, "q1": q1, "q3": q3, "spread": share, "values": values}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
