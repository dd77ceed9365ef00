"""Spans around gcmi's public functions, for the traced run only.

A span is (name, start, end, parent, notes).  ``Tracer.install`` replaces
each function in ``WRAPPED`` at the module attribute where its callers
look it up, so calls made by gcmi itself are seen without changing gcmi.
Spans are kept in memory.  The process that installed the tracer writes
them out when ``close`` is called; a worker process forked from it writes
its own each time its outermost span ends, because pool workers leave
through ``os._exit`` and run no exit hooks.  ``derive`` turns the spans
into the per-layer metrics.

The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path


def _adam_role(args, kwargs, result):
    # the discriminator is the only network with the (0, 2) output head
    act = getattr(args[0], "output_activation", None)
    return {"role": "disc" if act == "scaled_sigmoid_0_2" else "gen"}


def _ampute_note(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    return {"mech": getattr(spec, "mechanism", "?"), "frac": float(result.mean())}


def _impute_note(args, kwargs, result):
    return {"chains": len(result.traces), "sweeps": sum(len(t) for t in result.traces)}


# (module, attribute, span name, note) -- each attribute is the binding
# that the caller named in the comment looks up at call time
WRAPPED = [
    ("gcmi.chained", "gcmi_impute", "chained.gcmi_impute", _impute_note),  # the benchmark
    ("gcmi.cli", "gcmi_impute", "chained.gcmi_impute", _impute_note),  # cli._cmd_impute
    ("gcmi.benchmark", "gcmi_impute", "chained.gcmi_impute", _impute_note),  # benchmark._run_repeat
    ("gcmi.chained", "sweep", "chained.sweep", None),  # chained._run_chain
    ("gcmi.chained", "encode_columns", "chained.encode", None),  # chained._refit_column
    ("gcmi.chained", "convergence_gamma", "chained.gamma", None),  # chained._run_chain
    ("gcmi.chained", "train_gcin", "gcin.train_gcin", None),  # chained._refit_column
    ("gcmi.chained", "impute_column", "gcin.impute_column", None),  # chained._refit_column
    ("gcmi.gcin", "adam_step", "nn.adam_step", _adam_role),  # gcin.train_gcin
    ("gcmi.cli", "read_csv", "data.read_csv", None),  # cli._cmd_impute
    ("gcmi.cli", "save_result", "data.save_result", None),  # cli._cmd_impute
    ("gcmi.chained", "write_csv", "data.write_csv", None),  # chained.save_result
    ("gcmi.cli", "load_config", "config.parse", None),  # cli._resolve_config
    ("gcmi.cli", "parse_config", "config.parse", None),  # cli._resolve_config
    ("gcmi.simulate", "gen_synthetic", "simulate.gen", None),  # the benchmark's set-up
    ("gcmi.simulate", "ampute", "simulate.ampute", _ampute_note),  # the benchmark's set-up
    ("gcmi.benchmark", "gen_synthetic", "simulate.gen", None),  # benchmark._load_truth
    ("gcmi.benchmark", "ampute", "simulate.ampute", _ampute_note),  # benchmark._run_repeat
    ("gcmi.benchmark", "run_benchmark", "benchmark.run", None),  # the benchmark
    ("gcmi.benchmark", "_run_repeat", "benchmark.repeat", None),  # run_benchmark's pool
    ("gcmi.benchmark", "rmse", "benchmark.rmse", None),  # benchmark._run_repeat
]


class Tracer:
    """Records spans in memory and writes them to ``out_dir``."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.forked = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.restore: list[tuple] = []
        self.missing: list[str] = []

    def _claim(self) -> None:
        # a forked worker starts with a copy of its parent's spans: drop them
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.forked = True
            self.spans, self.stack = [], []

    def open(self, name: str) -> list:
        self._claim()
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, {}]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()
        if self.forked and not self.stack:
            self.flush()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, e.g. an import."""
        self._claim()
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1, {}])

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def wrap(self, module_name: str, attr: str, name: str, note=None) -> None:
        module = sys.modules.get(module_name) or importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    span[4] = note(args, kwargs, result)
                return result
            finally:
                self.end(span)

        setattr(module, attr, traced)
        self.restore.append((module, attr, original))

    def install(self) -> "Tracer":
        for module_name, attr, name, note in WRAPPED:
            self.wrap(module_name, attr, name, note)
        if self.missing:
            print(f"tracing: not found, not traced: {', '.join(self.missing)}", file=sys.stderr)
            self.missing = []
        return self

    def uninstall(self) -> None:
        """Put the original functions back; recorded spans stay in memory."""
        for module, attr, original in reversed(self.restore):
            setattr(module, attr, original)
        self.restore = []

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps({"pid": self.pid, "spans": self.spans}) + "\n")
        self.spans = []

    def close(self) -> None:
        self.uninstall()
        self.flush()


def load(out_dir: Path) -> list[list[list]]:
    """Every batch of spans written under ``out_dir``."""
    batches = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            batches.append(json.loads(line)["spans"])
    return batches


class Spans:
    """Queries over batches of spans; parents index into their own batch."""

    def __init__(self, batches: list[list[list]]):
        self.items = []  # (batch, index, span)
        self.children: dict[tuple[int, int], float] = {}
        for b, spans in enumerate(batches):
            for i, span in enumerate(spans):
                self.items.append((b, i, span))
                if span[3] >= 0:
                    key = (b, span[3])
                    self.children[key] = self.children.get(key, 0.0) + span[2] - span[1]
        self.batches = batches

    def _outermost(self, b: int, span: list) -> bool:
        parent = span[3]
        while parent >= 0:
            above = self.batches[b][parent]
            if above[0] == span[0]:
                return False
            parent = above[3]
        return True

    def count(self, name: str, **notes) -> int:
        return sum(
            1
            for _, _, s in self.items
            if s[0] == name and all(s[4].get(k) == v for k, v in notes.items())
        )

    def total(self, name: str) -> float:
        """Inclusive seconds, nested spans of the same name counted once."""
        return sum(s[2] - s[1] for b, _, s in self.items if s[0] == name and self._outermost(b, s))

    def self_time(self, name: str) -> float:
        """Seconds inside spans of this name and outside their child spans."""
        return sum(
            s[2] - s[1] - self.children.get((b, i), 0.0) for b, i, s in self.items if s[0] == name
        )

    def notes(self, name: str) -> list[dict]:
        return [s[4] for _, _, s in self.items if s[0] == name]


MECHANISMS = ("mcar", "mar", "mnar")


def derive(setup: Spans, rounds: Spans, n_rounds: int) -> dict[str, float]:
    """Per-layer metrics: seconds (summed over processes) and counts per
    round; the simulate layer is counted where it runs, in set-up or in
    the rounds."""

    def per_round(fn, *args, **kwargs):
        return fn(*args, **kwargs) / n_rounds

    imputes = rounds.notes("chained.gcmi_impute")
    chains = sum(n.get("chains", 0) for n in imputes) / n_rounds
    sweeps = per_round(rounds.count, "chained.sweep")
    fits = per_round(rounds.count, "gcin.train_gcin")
    fit_s = per_round(rounds.total, "gcin.train_gcin")
    updates = per_round(rounds.count, "nn.adam_step", role="gen")
    sim = rounds if rounds.count("simulate.gen") or rounds.count("simulate.ampute") else setup
    sim_rounds = n_rounds if sim is rounds else 1
    fracs = {m: [n["frac"] for n in sim.notes("simulate.ampute") if n.get("mech") == m] for m in MECHANISMS}
    repeats = rounds.count("benchmark.repeat")
    return {
        "nn.adam_step_s": per_round(rounds.total, "nn.adam_step"),
        "gcin.fits": fits,
        "gcin.fit_s": fit_s,
        "gcin.updates": updates,
        "gcin.us_per_update": fit_s / updates * 1e6 if updates else 0.0,
        "gcin.impute_column_s": per_round(rounds.total, "gcin.impute_column"),
        "chained.chains": chains,
        "chained.sweeps": sweeps,
        "chained.sweeps_per_chain": sweeps / chains if chains else 0.0,
        "chained.sweep_s": per_round(rounds.total, "chained.sweep"),
        "chained.encode_s": per_round(rounds.total, "chained.encode"),
        "chained.gamma_s": per_round(rounds.total, "chained.gamma"),
        # the sweep loop outside its fits; gcmi_impute's own self time would
        # count the parent's wait on its pool
        "chained.self_s": per_round(rounds.self_time, "chained.sweep"),
        "data.read_csv_s": per_round(rounds.total, "data.read_csv"),
        "data.write_csv_s": per_round(rounds.total, "data.write_csv"),
        "data.save_result_s": per_round(rounds.total, "data.save_result"),
        "simulate.gen_s": sim.total("simulate.gen") / sim_rounds,
        "simulate.ampute_s": sim.total("simulate.ampute") / sim_rounds,
        **{f"simulate.missing_frac.{m}": sum(f) / len(f) if f else 0.0 for m, f in fracs.items()},
        "benchmark.repeat_s": rounds.total("benchmark.repeat") / repeats if repeats else 0.0,
        "benchmark.rmse_s": per_round(rounds.total, "benchmark.rmse"),
        "cli.import_s": per_round(rounds.total, "cli.import"),
        "cli.config_s": per_round(rounds.total, "config.parse"),
    }
