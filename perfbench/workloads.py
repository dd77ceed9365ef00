"""The three workloads: how each builds its inputs from the seed, runs one
round through a public gcmi entry point, and checks what came back.

A round is the same operation every time within a run, on the same
inputs, so its times can be averaged over the rounds; the seed changes
the inputs, never the amount of work:

* ``impute_continuous`` calls ``gcmi_impute`` in-process.  Its two chains
  run on two worker processes.  Chains may run up to three sweeps.  On this data the first sweep's change is about the
  whole value (the mean fill is near 0) and every later one is about half,
  so today's dual convergence rule always runs all three; a change to the
  rule or to warm starts moves the sweep count, which the trace reports.
* ``cli_mixed`` runs ``python -m gcmi --threads 2 impute`` (through its
  config file) as a subprocess on a mixed CSV, so interpreter start-up,
  import, config parsing and the CSV layer are all paid on every round.
* ``mc_grid`` calls ``run_benchmark`` over MCAR, MAR and MNAR with the
  ``gcmi`` and ``mean`` methods on two worker processes.

Batch size is ``min(256, n_obs)``; every table is large enough that each
column keeps more than 256 observed rows, so the per-update cost does not
depend on the seed either.

Every workload keeps both cores of the 2-core host busy: with one core
busy, the per-run mean round time on that host moved 15-22 % (quartile
distance over median, ten seeds) from one 30-second run to the next;
with two it moved 5-9 %.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks

import gcmi.benchmark
import gcmi.chained
import gcmi.data
import gcmi.simulate
from gcmi.benchmark import BenchmarkSpec, MethodSpec
from gcmi.chained import GcmiConfig
from gcmi.gcin import TrainConfig
from gcmi.simulate import AmputationSpec, SyntheticSpec


@dataclass
class Round:
    """What one round measured and delivered."""

    wall_s: float
    cpu_s: float
    peak_rss_kb: int
    datasets: int
    digest: str
    outputs: object = None
    csv_bytes: int = 0


@dataclass
class Verdict:
    """Checks on one round's outputs: failed datasets and job-level problems."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: dict = field(default_factory=dict)


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    """Peak resident set of this process or of any pool worker it reaped."""
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Outcome coefficients, fixed so that the seed draws a sample from one model
# and the accuracy figures do not move with the model's signal strength.
ALPHA = (0.542, -0.769, 0.298, -0.156, 0.778, -0.391, -0.629, 0.311, 0.913)


class ImputeContinuous:
    """gcmi_impute in-process on an equicorrelated Gaussian table plus its
    linear outcome, MCAR 0.3."""

    name = "impute_continuous"
    N, P, RHO, RATE, WORKERS = 1000, 9, 0.5, 0.3, 2
    CONFIG = dict(m_imputations=2, max_chain_iters=3, train=TrainConfig(max_epochs=50))

    def build(self, seed: int, workdir: Path) -> None:
        s_data, s_mask, s_run = _seeds(seed, 3)
        self.alpha = np.array(ALPHA[: self.P])
        X, Y = gcmi.simulate.gen_synthetic(
            SyntheticSpec(n=self.N, p=self.P, rho=self.RHO, alpha=tuple(self.alpha), seed=s_data)
        )
        self.truth = np.column_stack([X, Y])
        self.mask = gcmi.simulate.ampute(self.truth, AmputationSpec("mcar", rate=self.RATE, seed=s_mask))
        self.values = np.where(self.mask, np.nan, self.truth)
        names = [f"X{j + 1}" for j in range(self.P)] + ["Y"]
        self.dm = gcmi.data.matrix_from_array(self.truth, self.mask, names=names)
        self.cfg = GcmiConfig(seed=s_run, workers=self.WORKERS, **self.CONFIG)

    def cells(self) -> int:
        return int(self.mask.sum()) * self.cfg.m_imputations

    def run_round(self) -> Round:
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        result = gcmi.chained.gcmi_impute(self.dm, self.cfg)
        wall = time.perf_counter() - t0
        cpu = _cpu_now() - cpu0
        completions = [c.values for c in result.completed]
        return Round(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_kb=_peak_rss_kb(),
            datasets=self.cfg.m_imputations,
            digest=_digest(completions),
            outputs=completions,
        )

    def check(self, rnd: Round) -> Verdict:
        completions = rnd.outputs
        verdict = Verdict()
        per_dataset = checks.check_completions(self.values, self.mask, completions)
        verdict.failed = self.cfg.m_imputations - len(completions) + sum(1 for p in per_dataset if p)
        verdict.problems += [p for found in per_dataset for p in found]
        if verdict.failed:
            return verdict
        verdict.problems += checks.check_draws_differ(completions, self.mask)
        coded = [False] * self.truth.shape[1]
        cov = checks.equicorrelated_cov(self.P, self.RHO, 1.0, self.alpha, 1.0)
        oracle = checks.scaled_rmse(self.truth, checks.oracle_fill(self.values, self.mask, cov), self.mask, coded)
        got = checks.scaled_rmse(self.truth, checks.pool(completions, coded), self.mask, coded)
        base = checks.scaled_rmse(self.truth, checks.mean_fill(self.values, self.mask), self.mask, coded)
        verdict.problems += checks.check_accuracy_order(oracle, got, base)
        verdict.reference = {"oracle_rmse": oracle, "rmse": got, "mean_rmse": base}
        return verdict


class CliMixed:
    """`python -m gcmi impute` on a 20 000-row CSV with continuous, binary
    and categorical columns, MCAR 0.2, M = 3."""

    name = "cli_mixed"
    N, P, RHO, RATE, M, WORKERS = 20_000, 7, 0.5, 0.2, 3, 2
    # latent columns 4, 5 and 6 are cut into levels at standard normal quantiles
    BINARY = (4, (0.0,), ("no", "yes"))
    CATEGORICAL = (
        (5, (-0.6745, 0.0, 0.6745), ("east", "north", "south", "west")),
        (6, (-0.4307, 0.4307), ("low", "mid", "high")),
    )
    CONFIG = {
        "threads": WORKERS,
        "train": {"max_epochs": 50},
        "gcmi": {"max_chain_iters": 1, "m_imputations": M},
    }

    def build(self, seed: int, workdir: Path) -> None:
        self.cli_argv_prefix = [sys.executable, "-m", "gcmi"]  # the traced run swaps it
        s_data, s_mask, s_run = _seeds(seed, 3)
        X, Y = gcmi.simulate.gen_synthetic(
            SyntheticSpec(n=self.N, p=self.P, rho=self.RHO, alpha=ALPHA[: self.P], seed=s_data)
        )
        header = ["X1", "X2", "X3", "X4", "Y", "owner", "region", "tier"]
        columns: list[list[str]] = [[repr(float(v)) for v in X[:, j]] for j in range(4)]
        columns.append([repr(float(v)) for v in Y])
        for j, cuts, labels in (self.BINARY, *self.CATEGORICAL):
            codes = np.searchsorted(np.asarray(cuts), X[:, j])
            columns.append([labels[c] for c in codes])
        self.header = header
        self.truth_rows = [list(r) for r in zip(*columns)]
        self.coded = [False] * 5 + [True] * 3
        self.mask = gcmi.simulate.ampute(
            np.zeros((self.N, len(header))), AmputationSpec("mcar", rate=self.RATE, seed=s_mask)
        )
        self.input_rows = [
            ["" if m else tok for tok, m in zip(row, mrow)] for row, mrow in zip(self.truth_rows, self.mask)
        ]
        self.levels = {j: {r[j] for r in self.input_rows if r[j]} for j in range(5, 8)}
        self.workdir = workdir
        self.input_csv = workdir / "cli_mixed_input.csv"
        self.config_path = workdir / "cli_mixed_config.json"
        self.out_dir = workdir / "cli_mixed_out"
        with open(self.input_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(self.input_rows)
        self.config_path.write_text(json.dumps({"seed": s_run, **self.CONFIG}))

    def cells(self) -> int:
        return int(self.mask.sum()) * self.M

    def run_round(self) -> Round:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [
            *self.cli_argv_prefix,
            "--config", str(self.config_path),
            "--output-dir", str(self.out_dir),
            "impute", str(self.input_csv),
        ]
        with open(self.workdir / "cli_mixed_stderr.txt", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            # wait4 gives this child's own CPU time and peak memory
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        files = [self.out_dir / f"imputed_imp{k}.csv" for k in range(1, self.M + 1)]
        h = hashlib.sha256(str(proc.returncode).encode())
        csv_bytes = self.input_csv.stat().st_size
        for path in files:
            if path.exists():
                h.update(path.read_bytes())
                csv_bytes += path.stat().st_size
        return Round(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_kb=usage.ru_maxrss,
            datasets=self.M,
            digest=h.hexdigest(),
            outputs=(proc.returncode, files),
            csv_bytes=csv_bytes,
        )

    def _codes(self, rows: list[list[str]]) -> np.ndarray:
        out = np.empty((len(rows), len(self.header)))
        for j in range(len(self.header)):
            if self.coded[j]:
                order = {lev: k for k, lev in enumerate(sorted(self.levels[j]))}
                out[:, j] = [order[r[j]] for r in rows]
            else:
                out[:, j] = [float(r[j]) for r in rows]
        return out

    def _baseline(self) -> list[list[str]]:
        """The benchmark's own fill: observed mean, or the most frequent
        level (ties to the first in sorted order)."""
        fills = []
        for j in range(len(self.header)):
            observed = [r[j] for r in self.input_rows if r[j]]
            if self.coded[j]:
                fills.append(max(sorted(set(observed)), key=observed.count))
            else:
                fills.append(repr(float(np.mean([float(t) for t in observed]))))
        return [[tok or fills[j] for j, tok in enumerate(r)] for r in self.input_rows]

    def check(self, rnd: Round) -> Verdict:
        code, files = rnd.outputs
        verdict = Verdict()
        if code != 0:
            err = (self.workdir / "cli_mixed_stderr.txt").read_text()[-500:]
            verdict.failed = self.M
            verdict.problems.append(f"gcmi impute exited {code}: {err}")
            return verdict
        manifest = self.out_dir / "imputed_manifest.json"
        if not manifest.exists():
            verdict.problems.append("no manifest written")
        elif json.loads(manifest.read_text()).get("files") != [f.name for f in files]:
            verdict.problems.append("manifest does not list the imputed files")
        completed = []
        for path in files:
            if not path.exists():
                verdict.failed += 1
                verdict.problems.append(f"{path.name} missing")
                continue
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            found = [] if rows and rows[0] == self.header else ["header changed"]
            found += checks.check_csv_tokens(self.header, self.input_rows, rows[1:], self.levels)
            if found:
                verdict.failed += 1
                verdict.problems += [f"{path.name}: {p}" for p in found]
            else:
                completed.append(self._codes(rows[1:]))
        if verdict.failed:
            return verdict
        truth = self._codes(self.truth_rows)
        got = checks.scaled_rmse(truth, checks.pool(completed, self.coded), self.mask, self.coded)
        base = checks.scaled_rmse(truth, self._codes(self._baseline()), self.mask, self.coded)
        if not got < base:
            verdict.problems.append(f"rmse {got:.6f} is not below the mean/mode fill's {base:.6f}")
        verdict.reference = {"rmse": got, "mean_mode_rmse": base}
        return verdict


class McGrid:
    """run_benchmark over MCAR, MAR and MNAR with gcmi and mean, several
    Monte Carlo repeats on two worker processes."""

    name = "mc_grid"
    N, P, RHO, REPEATS, WORKERS = 400, 6, 0.5, 4, 2
    MECHANISMS = (AmputationSpec("mcar", rate=0.3), AmputationSpec("mar"), AmputationSpec("mnar"))
    GCMI = dict(m_imputations=2, max_chain_iters=1, train=TrainConfig(max_epochs=50))

    def build(self, seed: int, workdir: Path) -> None:
        s_data, s_grid = _seeds(seed, 2)
        self.spec = BenchmarkSpec(
            data=SyntheticSpec(n=self.N, p=self.P, rho=self.RHO, seed=s_data),
            mechanisms=list(self.MECHANISMS),
            methods=[MethodSpec("gcmi"), MethodSpec("mean")],
            mc_repeats=self.REPEATS,
            seed=s_grid,
            gcmi=GcmiConfig(**self.GCMI),
            workers=self.WORKERS,
        )

    def repeats(self):
        """Each repeat's table and each mechanism's mask, drawn again through
        the public simulate API with the seeds run_benchmark derives (repeat
        path 100, mechanism path 200), with the seed of its gcmi run (path
        300): yields (repeat, mechanism, table, mask, run seed).  check()
        imputes and scores every one of them again, so a change in these
        paths shows as a failed check, not as a silent miscount."""
        from gcmi.seeding import spawn_rng

        for r in range(self.spec.mc_repeats):
            data_seed = int(spawn_rng(self.spec.seed, 100, r).integers(0, 2**63))
            X, _ = gcmi.simulate.gen_synthetic(replace(self.spec.data, seed=data_seed))
            for i, mech in enumerate(self.spec.mechanisms):
                mech_seed = int(spawn_rng(self.spec.seed, 200, r, i).integers(0, 2**63))
                run_seed = int(spawn_rng(self.spec.seed, 300, r, i).integers(0, 2**63))
                yield r, mech, X, gcmi.simulate.ampute(X, replace(mech, seed=mech_seed)), run_seed

    def cells(self) -> int:
        return sum(int(mask.sum()) for *_, mask, _ in self.repeats()) * self.spec.gcmi.m_imputations

    def run_round(self) -> Round:
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        table = gcmi.benchmark.run_benchmark(self.spec)
        wall = time.perf_counter() - t0
        cpu = _cpu_now() - cpu0
        rows = [
            {"method": r.method, "mechanism": r.mechanism, "mean_rmse": r.mean_rmse, "n_repeats": r.n_repeats}
            for r in table.rows
        ]
        # per-repeat scores, which check() computes again on its own
        scores = {f"{method}.{mech}": list(values) for (method, mech), values in table.raw.items()}
        return Round(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_kb=_peak_rss_kb(),
            datasets=self.spec.mc_repeats * len(self.spec.mechanisms) * self.spec.gcmi.m_imputations,
            digest=hashlib.sha256(json.dumps([rows, scores], sort_keys=True).encode()).hexdigest(),
            outputs=(rows, scores),
        )

    def check(self, rnd: Round) -> Verdict:
        rows, scores = rnd.outputs
        labels = [m.label for m in self.spec.mechanisms]
        m = self.spec.gcmi.m_imputations
        verdict = Verdict(problems=checks.check_grid(rows, ["gcmi", "mean"], labels, self.spec.mc_repeats))
        verdict.reference = {f"{r['method']}.{r['mechanism']}": r["mean_rmse"] for r in rows}
        delivered = {
            r["mechanism"]: r["n_repeats"]
            for r in rows
            if r["method"] == "gcmi" and np.isfinite(r["mean_rmse"]) and r["mean_rmse"] > 0
        }
        # Every dataset of the grid is imputed again, gcmi with the seed
        # run_benchmark gives it, and scored by the benchmark's own pooling,
        # mean fill and scorer; a repeat whose table score differs fails.
        own, fractions = [], {}
        coded = [False] * self.P
        for r, mech, X, mask, run_seed in self.repeats():
            fractions.setdefault(mech.mechanism, []).append(mask.mean())
            result = gcmi.chained.gcmi_impute(
                gcmi.data.matrix_from_array(X, mask), replace(self.spec.gcmi, seed=run_seed, workers=1)
            )
            gcmi_score = checks.scaled_rmse(X, checks.pool([c.values for c in result.completed], coded), mask, coded)
            mean_score = checks.scaled_rmse(X, checks.mean_fill(np.where(mask, np.nan, X), mask), mask, coded)
            own.append(gcmi_score)
            mismatched = []
            for method, score in (("gcmi", gcmi_score), ("mean", mean_score)):
                table = scores.get(f"{method}.{mech.label}", [])
                if r >= len(table) or not abs(table[r] - score) <= 1e-9 * score:
                    mismatched.append(f"{method} x {mech.label} repeat {r}: table rmse "
                                      f"{table[r] if r < len(table) else None!r}, own score {score!r}")
            if r >= delivered.get(mech.label, 0) or mismatched:
                verdict.failed += m
            verdict.problems += mismatched
        verdict.reference["rmse"] = float(np.mean(own))
        verdict.reference.update({f"missing_frac.{mech}": float(np.mean(f)) for mech, f in fractions.items()})
        return verdict


WORKLOADS = {w.name: w for w in (ImputeContinuous, CliMixed, McGrid)}
