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
      "benchmark": {"data": "synthetic", "synthetic": {...like simulate...},
                    "mechanisms": [{"mechanism": "mcar", "rate": 0.3, ...}],
                    "methods": [{"kind": "mean"}, {"kind": "gcmi"},
                                {"kind": "external", "name": ..., "path": ...}],
                    "mc_repeats": 100, "normalized": true,
                    "dump_raw": false, "out_prefix": "benchmark"}
    }

Every random draw derives from the root ``seed``; the training seed in
particular is set per column, so ``train`` has no ``seed`` key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .benchmark import BenchmarkSpec, MethodSpec
from .chained import GcmiConfig
from .errors import ConfigError
from .gcin import TrainConfig
from .simulate import AmputationSpec, SyntheticSpec


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r} section: {sorted(unknown)}")


def _bool(section: str, data: dict, key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be true or false, got {value!r}")
    return value


def _dataclass_from(section: str, data: dict, cls, **extra):
    allowed = {f.name for f in dc_fields(cls)}
    _check_keys(section, data, allowed - set(extra))
    try:
        return cls(**data, **extra)
    except TypeError as exc:
        raise ConfigError(f"bad {section!r} section: {exc}") from exc


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


_TOP_KEYS = {
    "seed",
    "threads",
    "output_dir",
    "train",
    "gcmi",
    "simulate",
    "ampute",
    "impute",
    "benchmark",
}


def _parse_synthetic(section: str, data: dict, seed: int) -> SyntheticSpec:
    data = dict(data)
    data.setdefault("seed", seed)
    if data.get("alpha") is not None:
        data["alpha"] = tuple(float(a) for a in data["alpha"])
    return _dataclass_from(section, data, SyntheticSpec)


def _parse_amputation(section: str, data: dict, seed: int) -> AmputationSpec:
    data = dict(data)
    data.setdefault("seed", seed)
    if data.get("cond_cols") is not None:
        data["cond_cols"] = tuple(int(c) for c in data["cond_cols"])
    if data.get("target_cols") is not None:
        data["target_cols"] = tuple(int(c) for c in data["target_cols"])
    spec = _dataclass_from(section, data, AmputationSpec)
    spec.validate()
    return spec


def _parse_benchmark(data: dict, cfg: RunConfig) -> BenchmarkJob:
    data = dict(data)
    allowed = {
        "data",
        "synthetic",
        "mechanisms",
        "methods",
        "mc_repeats",
        "normalized",
        "dump_raw",
        "out_prefix",
        "seed",
    }
    _check_keys("benchmark", data, allowed)
    source = data.get("data", "synthetic")
    if source == "synthetic":
        source_spec = _parse_synthetic(
            "benchmark.synthetic", data.get("synthetic", {}), data.get("seed", cfg.seed)
        )
    else:
        source_spec = str(source)
    mechanisms = [
        _parse_amputation(f"benchmark.mechanisms[{i}]", m, data.get("seed", cfg.seed))
        for i, m in enumerate(data.get("mechanisms", [{"mechanism": "mcar", "rate": 0.3}]))
    ]
    methods = []
    for i, m in enumerate(data.get("methods", [{"kind": "mean"}])):
        methods.append(_dataclass_from(f"benchmark.methods[{i}]", dict(m), MethodSpec))
    spec = BenchmarkSpec(
        data=source_spec,
        mechanisms=mechanisms,
        methods=methods,
        mc_repeats=int(data.get("mc_repeats", 100)),
        seed=int(data.get("seed", cfg.seed)),
        gcmi=cfg.gcmi,
        workers=cfg.threads,
        normalized=_bool("benchmark", data, "normalized", True),
    )
    return BenchmarkJob(
        spec=spec,
        dump_raw=_bool("benchmark", data, "dump_raw", False),
        out_prefix=str(data.get("out_prefix", "benchmark")),
    )


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys("top-level", data, _TOP_KEYS)
    cfg = RunConfig(
        seed=int(data.get("seed", 0)),
        threads=int(data.get("threads", 1)),
        output_dir=str(data.get("output_dir", ".")),
    )
    if cfg.threads < 1:
        raise ConfigError(f"threads must be at least 1, got {cfg.threads}")
    train = _dataclass_from("train", dict(data.get("train", {})), TrainConfig, seed=cfg.seed)
    gcmi_section = dict(data.get("gcmi", {}))
    gcmi_section.setdefault("seed", cfg.seed)
    gcmi_section.setdefault("workers", cfg.threads)
    cfg.gcmi = _dataclass_from("gcmi", gcmi_section, GcmiConfig, train=train)
    cfg.gcmi.validate()

    if "simulate" in data:
        section = dict(data["simulate"])
        out = str(section.pop("out", "synthetic.csv"))
        cfg.simulate = SimulateJob(_parse_synthetic("simulate", section, cfg.seed), out)
    if "ampute" in data:
        section = dict(data["ampute"])
        input_path = section.pop("input", None)
        out_prefix = str(section.pop("out_prefix", "amputed"))
        cfg.ampute = AmputeJob(_parse_amputation("ampute", section, cfg.seed), input_path, out_prefix)
    if "impute" in data:
        section = dict(data["impute"])
        _check_keys("impute", section, {"input", "out_prefix"})
        cfg.impute = ImputeJob(
            input=section.get("input"),
            out_prefix=str(section.get("out_prefix", "imputed")),
        )
    if "benchmark" in data:
        cfg.benchmark = _parse_benchmark(dict(data["benchmark"]), cfg)
    return cfg


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read a JSON configuration file and parse it with ``overrides``
    (top-level keys) merged over the file's own values."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and overrides:
        data = {**data, **overrides}
    return parse_config(data)
