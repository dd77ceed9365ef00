"""JSON run configuration.

One file can drive the whole pipeline; every section is optional and every
field has a documented default, so ``{}`` is a valid configuration.
Unknown keys are rejected.  Schema (defaults shown):

    {
      "seed": 0,                  // root seed; all randomness derives from it
      "threads": 1,               // worker processes for chains / MC repeats
      "output_dir": ".",
      "train": {                  // adversarial fit hyperparameters
        "lr_generator": 0.001, "lr_discriminator": 0.0005, "l2": 0.0001,
        "gen_iters_per_cycle": 50, "disc_iters_per_cycle": 10,
        "batch_size": 256, "max_epochs": 10000, "acc_penalty_weight": 1.0,
        "early_stop_patience": 50, "early_stop_tol": 0.0001, "noise_dim": 8
      },
      "gcmi": {"max_chain_iters": 20, "m_imputations": 5},  // chained MI settings
      "simulate": {"n": 2000, "p": 15, "rho": 0.3, "sigma2": 1.0,
                   "noise_sd": 1.0, "alpha": null, "out": "synthetic.csv"},
      "ampute": {"input": null, "mechanism": "mcar", "rate": 0.3,
                 "b0": -1.5, "b1": 3.0, "layout": "elementwise",
                 "cond_cols": [0,1,2,3], "target_cols": null,
                 "out_prefix": "amputed"},
      "impute": {"input": null, "out_prefix": "imputed"},
      // relative "input" paths resolve against output_dir, so one config
      // can chain the simulate -> ampute -> impute -> benchmark pipeline
      "benchmark": {"data": "synthetic", "synthetic": {...simulate without out...},
                    "mechanisms": [{"mechanism": "mcar", "rate": 0.3, ...}],
                    "methods": [{"kind": "mean"}, {"kind": "gcmi"},
                                {"kind": "external", "name": ..., "path": ...}],
                    "mc_repeats": 100, "normalized": true,
                    "dump_raw": false, "out_prefix": "benchmark"}
    }

Each key must have the type of its default: ``true``/``false`` for flags,
an integer (``2``, not ``2.0``) for counts and column indices, any finite
number for rates and weights, a string for names and paths, a list or an
object where one is shown.  A ``null`` default also takes ``null``.  Every
random draw derives from the root ``seed`` and every worker count is the
root ``threads``, so no section has a ``seed`` or ``workers`` key.  The
command-line flags override the same keys (see ``gcmi.cli``).
"""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .benchmark import BenchmarkSpec
from .chained import GcmiConfig
from .errors import ConfigError
from .gcin import TrainConfig
from .simulate import AmputationSpec, SyntheticSpec

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}
_SECTIONS = ("train", "gcmi", "simulate", "ampute", "impute", "benchmark")


def _object(path: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object, got {value!r}")
    return dict(value)


def _typed(path: str, value, tp, fixed: dict):
    """Check a JSON value against a field type and return it as that type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if value is None else _typed(path, value, args[0], fixed)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return origin(_typed(f"{path}[{i}]", v, args[0], fixed) for i, v in enumerate(value))
    if is_dataclass(tp):
        return _dataclass_from(path, value, tp, fixed)
    ok = isinstance(value, (int, float) if tp is float else tp)
    ok = ok and (tp is bool or not isinstance(value, bool))
    if ok and tp is float:  # an integer stays one, so the manifest keeps its bytes
        ok = -sys.float_info.max <= value <= sys.float_info.max
    if not ok:
        raise ConfigError(f"{path} must be {_KINDS[tp]}, got {value!r}")
    return value


def _dataclass_from(section: str, data, cls, fixed: dict, /, **extra):
    """Build ``cls`` from a JSON object whose keys are its fields.

    Fields named in ``fixed`` or ``extra`` take their value from there and
    are not keys of the section; ``fixed`` also reaches nested sections.
    """
    data = _object(section, data)
    hints = typing.get_type_hints(cls)
    preset = {k: v for k, v in fixed.items() if k in hints} | extra
    unknown = data.keys() - (hints.keys() - preset.keys())
    if unknown:
        name = section or "top-level"
        raise ConfigError(f"unknown key(s) in {name!r} section: {sorted(unknown)}")
    prefix = f"{section}." if section else ""
    values = {k: _typed(prefix + k, v, hints[k], fixed) for k, v in data.items()}
    try:
        return cls(**values, **preset)
    except TypeError as exc:
        raise ConfigError(f"bad {section!r} section: {exc}") from exc


def _job(section: str, data, job_cls, spec_cls, fixed: dict, /, **extra):
    """Split one flat section between a job's own keys and its spec's."""
    data = _object(section, data)
    own = {f.name: data.pop(f.name) for f in fields(job_cls) if f.name in data}
    spec = _dataclass_from(section, data, spec_cls, fixed, **extra)
    return _dataclass_from(section, own, job_cls, fixed, spec=spec)


@dataclass
class SimulateJob:
    spec: SyntheticSpec
    out: str = "synthetic.csv"


@dataclass
class AmputeJob:
    spec: AmputationSpec
    input: str | None = None
    out_prefix: str = "amputed"


@dataclass
class ImputeJob:
    input: str | None = None
    out_prefix: str = "imputed"


@dataclass
class BenchmarkJob:
    spec: BenchmarkSpec
    dump_raw: bool = False
    out_prefix: str = "benchmark"


@dataclass
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    seed: int = 0
    threads: int = 1
    output_dir: str = "."
    gcmi: GcmiConfig = field(default_factory=GcmiConfig)
    simulate: SimulateJob | None = None
    ampute: AmputeJob | None = None
    impute: ImputeJob | None = None
    benchmark: BenchmarkJob | None = None


def _parse_benchmark(data, cfg: RunConfig, fixed: dict) -> BenchmarkJob:
    data = _object("benchmark", data)
    source = _typed("benchmark.data", data.pop("data", "synthetic"), str, fixed)
    synthetic = data.pop("synthetic", {})
    synthetic = _dataclass_from("benchmark.synthetic", synthetic, SyntheticSpec, fixed)
    data.setdefault("mechanisms", [{}])  # one MCAR mechanism at the default rate
    job = _job(
        "benchmark", data, BenchmarkJob, BenchmarkSpec, fixed,
        data=synthetic if source == "synthetic" else source, gcmi=cfg.gcmi,
    )
    for mechanism in job.spec.mechanisms:
        mechanism.validate()
    return job


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, checking every key and
    every value against the field it fills."""
    data = _object("configuration root", data)
    sections = {name: data.pop(name) for name in _SECTIONS if name in data}
    cfg = _dataclass_from("", data, RunConfig, {})
    if cfg.threads < 1:
        raise ConfigError(f"threads must be at least 1, got {cfg.threads}")
    # no section sets these: seeds and worker counts come from the root, and
    # beta (the MAR weights, an array) has no JSON form
    fixed = {"seed": cfg.seed, "workers": cfg.threads, "beta": None}
    train = _dataclass_from("train", sections.get("train", {}), TrainConfig, fixed)
    cfg.gcmi = _dataclass_from("gcmi", sections.get("gcmi", {}), GcmiConfig, fixed, train=train)
    cfg.gcmi.validate()
    if "simulate" in sections:
        cfg.simulate = _job("simulate", sections["simulate"], SimulateJob, SyntheticSpec, fixed)
    if "ampute" in sections:
        cfg.ampute = _job("ampute", sections["ampute"], AmputeJob, AmputationSpec, fixed)
        cfg.ampute.spec.validate()
    if "impute" in sections:
        cfg.impute = _dataclass_from("impute", sections["impute"], ImputeJob, fixed)
    if "benchmark" in sections:
        cfg.benchmark = _parse_benchmark(sections["benchmark"], cfg, fixed)
    return cfg


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read a JSON configuration file and parse it with ``overrides`` merged
    over the file's own values: a top-level key replaces the file's, a
    section merges key by key into the file's section of that name."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        for key, value in (overrides or {}).items():
            base = data.get(key, {})
            if isinstance(value, dict):  # a section that is not an object stays, to be reported
                value = {**base, **value} if isinstance(base, dict) else base
            data[key] = value
    return parse_config(data)
