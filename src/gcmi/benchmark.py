"""Mean/mode baseline, masked-cell RMSE, and the Monte Carlo benchmark.

Every repeat draws (or loads) a complete dataset, deletes cells under each
configured mechanism, hands the identical amputed matrix to every method,
and scores the methods on the identical mask.  RMSE is computed over the
deleted cells only, on a per-column [0, 1] scale fitted to the complete
truth (categorical cells contribute 0/1 disagreement); the raw scale is
available via ``normalized=False``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .chained import GcmiConfig, gcmi_impute, initial_fill
from .data import ColumnSchema, DataMatrix, matrix_from_array, read_csv
from .errors import ConfigError, DataError, ShapeError
from .seeding import derive_seed, parallel_map
from .simulate import AmputationSpec, SyntheticSpec, ampute, gen_synthetic

METHOD_KINDS = ("gcmi", "mean", "external")


def rmse(
    X_true: np.ndarray,
    X_imputed: np.ndarray,
    mask: np.ndarray,
    schema: list[ColumnSchema] | None = None,
    normalized: bool = True,
) -> float:
    """Root mean squared error over the masked cells.

    ``normalized`` rescales continuous errors by the truth's per-column
    range (columns without spread keep scale 1).  Binary/categorical cells
    score 0/1 disagreement either way.
    """
    X_true = np.asarray(X_true, dtype=float)
    X_imputed = np.asarray(X_imputed, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if X_true.shape != X_imputed.shape or X_true.shape != mask.shape:
        raise ShapeError("truth, imputed and mask must share one shape")
    if not mask.any():
        raise ValueError("RMSE is undefined on an empty mask")
    p = X_true.shape[1]
    if schema is None:
        continuous = np.ones(p, dtype=bool)
    else:
        continuous = np.array([c.kind == "continuous" for c in schema])
    scale = np.ones(p)
    if normalized:
        spread = X_true.max(axis=0) - X_true.min(axis=0)
        scale[continuous & (spread > 0)] = spread[continuous & (spread > 0)]
    errors = []
    for j in range(p):
        cells = mask[:, j]
        if not cells.any():
            continue
        if continuous[j]:
            errors.append((X_true[cells, j] - X_imputed[cells, j]) / scale[j])
        else:
            errors.append((X_true[cells, j] != X_imputed[cells, j]).astype(float))
    flat = np.concatenate(errors)
    return float(np.sqrt(np.mean(flat**2)))


@dataclass
class MethodSpec:
    """One imputation method entering the benchmark."""

    kind: str
    name: str = ""
    path: str | None = None  # directory of per-repeat results for external methods

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ConfigError(f"method kind must be one of {METHOD_KINDS}")
        if not self.name:
            self.name = self.kind
        if self.kind == "external" and not self.path:
            raise ConfigError("external methods need a results path")


@dataclass
class BenchmarkSpec:
    """Monte Carlo experiment grid: data x mechanisms x methods.

    ``gcmi.seed`` and ``gcmi.workers`` are not read: the gcmi run of
    repeat r under mechanism i takes its seed at ``(300, r, i)`` under
    ``seed`` and runs on one worker, and ``workers`` runs repeats in
    parallel.
    """

    data: SyntheticSpec | str | Path
    mechanisms: list[AmputationSpec] = field(default_factory=list)
    methods: list[MethodSpec] = field(default_factory=lambda: [MethodSpec("mean")])
    mc_repeats: int = 100
    seed: int = 0
    gcmi: GcmiConfig = field(default_factory=GcmiConfig)
    workers: int = 1
    normalized: bool = True

    def validate(self) -> None:
        if self.mc_repeats < 1:
            raise ConfigError("mc_repeats must be at least 1")
        if not self.methods:
            raise ConfigError("method list must be non-empty")
        if not self.mechanisms:
            raise ConfigError("mechanism list must be non-empty")


@dataclass
class BenchmarkRow:
    method: str
    mechanism: str
    rate: float  # share of cells the mechanism deleted, mean over repeats
    mean_rmse: float
    sd_rmse: float
    se_rmse: float
    n_repeats: int


@dataclass
class BenchmarkTable:
    """Aggregated results plus the per-repeat raw values."""

    rows: list[BenchmarkRow]
    raw: dict[tuple[str, str], list[float]]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(BenchmarkRow)])
            for r in self.rows:
                # floats as repr, so a value reads back to the same bits
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in astuple(r)])

    def to_json(self, path: str | Path) -> None:
        payload = [asdict(r) for r in self.rows]
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    def dump_raw_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "mechanism", "repeat", "rmse"])
            for (method, mech), values in sorted(self.raw.items()):
                for r, v in enumerate(values):
                    writer.writerow([method, mech, r, repr(float(v))])


def _pool_completed(result) -> np.ndarray:
    """Collapse M completed datasets to one matrix: cell means for
    continuous columns, majority level elsewhere (a tie to the smallest
    code, as in ``initial_fill``)."""
    stack = np.stack([dm.values for dm in result.completed])
    out = stack.mean(axis=0)
    for j, col in enumerate(result.completed[0].schema):
        if col.kind != "continuous":
            votes = stack[:, :, j, None] == np.arange(len(col.levels))  # (M, n, levels)
            out[:, j] = votes.sum(axis=0).argmax(axis=1)
    return out


def _load_truth(spec: BenchmarkSpec, repeat: int) -> DataMatrix:
    """The synthetic truth of repeat ``repeat``, drawn under (100, repeat)."""
    seed = derive_seed(spec.seed, 100, repeat)
    X, _ = gen_synthetic(replace(spec.data, seed=seed))
    return matrix_from_array(X)


def _external_result(method: MethodSpec, mech_label: str, repeat: int, dm_truth: DataMatrix) -> np.ndarray:
    """The external method's completion of one repeat, read against the
    truth's schema (see ``read_csv``), so in the truth's level codes."""
    path = Path(method.path) / f"{mech_label}_rep{repeat:03d}.csv"
    if not path.exists():
        raise DataError(f"external method {method.name!r}: missing results file for repeat {repeat}: {path}")
    where = f"external method {method.name!r}: repeat {repeat}"
    try:
        ext = read_csv(path, schema=dm_truth.schema)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None
    if ext.n_rows != dm_truth.n_rows:
        raise DataError(f"{where} has {ext.n_rows} rows, expected {dm_truth.n_rows}")
    if ext.mask.any():
        raise DataError(f"{where} still contains missing cells")
    return ext.values


def _run_repeat(
    spec: BenchmarkSpec, repeat: int, truth: DataMatrix | None = None
) -> tuple[list[tuple[str, str, float]], dict[str, float]]:
    """All (method, mechanism) scores for one Monte Carlo repeat, and the
    share of cells each mechanism deleted; ``truth`` is a CSV-sourced
    benchmark's table, and a synthetic one draws the repeat's own."""
    if truth is None:
        truth = _load_truth(spec, repeat)
    out = []
    deleted = {}
    for i, mech in enumerate(spec.mechanisms):
        mech_seed = derive_seed(spec.seed, 200, repeat, i)
        mask = ampute(truth.values, replace(mech, seed=mech_seed))
        deleted[mech.label] = float(mask.mean())
        if not mask.any():
            out.extend((m.name, mech.label, 0.0) for m in spec.methods)
            continue
        amputed = DataMatrix(list(truth.schema), np.where(mask, np.nan, truth.values))
        for method in spec.methods:
            if method.kind == "mean":
                imputed = initial_fill(amputed).values
            elif method.kind == "gcmi":
                run_seed = derive_seed(spec.seed, 300, repeat, i)
                cfg = replace(spec.gcmi, seed=run_seed, workers=1)
                imputed = _pool_completed(gcmi_impute(amputed, cfg))
            else:
                imputed = _external_result(method, mech.label, repeat, truth)
            score = rmse(
                truth.values, imputed, mask, schema=truth.schema, normalized=spec.normalized
            )
            out.append((method.name, mech.label, score))
    return out, deleted


def run_benchmark(spec: BenchmarkSpec) -> BenchmarkTable:
    """Run the full grid; deterministic per spec.seed regardless of workers.
    A CSV-sourced benchmark reads its table once, here, and it must be
    complete."""
    spec.validate()
    truth = None  # a synthetic benchmark draws each repeat's own
    if not isinstance(spec.data, SyntheticSpec):
        truth = read_csv(spec.data)
        if truth.mask.any():
            raise DataError(f"{spec.data}: benchmark data must be complete")
    tasks = [(spec, r, truth) for r in range(spec.mc_repeats)]
    per_repeat = parallel_map(_run_repeat, tasks, spec.workers)

    raw: dict[tuple[str, str], list[float]] = {}
    deleted: dict[str, list[float]] = {}
    for scores, fractions in per_repeat:
        for method, mech, value in scores:
            raw.setdefault((method, mech), []).append(value)
        for mech, frac in fractions.items():
            deleted.setdefault(mech, []).append(frac)

    rows = []
    for method in spec.methods:
        for mech in spec.mechanisms:
            values = np.array(raw[(method.name, mech.label)])
            n = values.size
            sd = float(values.std(ddof=1)) if n > 1 else 0.0
            rows.append(
                BenchmarkRow(
                    method=method.name,
                    mechanism=mech.label,
                    rate=float(np.mean(deleted[mech.label])),
                    mean_rmse=float(values.mean()),
                    sd_rmse=sd,
                    se_rmse=sd / np.sqrt(n) if n > 1 else 0.0,
                    n_repeats=n,
                )
            )
    return BenchmarkTable(rows=rows, raw=raw)

