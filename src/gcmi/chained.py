"""Chained-equation multiple imputation driven by per-column adversarial fits.

Each of M independent chains starts from a mean/mode fill, orders columns
by ascending missing fraction, and sweeps: for every column with missing
cells, fit a generator/discriminator pair on the rows where that column is
observed (conditioning on the current completion of the other columns) and
regenerate the missing cells.  A dual criterion tracks the relative squared
change of continuous cells and the change proportion of binary/categorical
cells between sweeps; the chain continues while either improves and keeps
the sweep with the smallest combined value.  Estimates from the M completed
datasets pool with the usual within/between variance decomposition.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    ColumnSchema,
    DataMatrix,
    column_slices,
    encode_columns,
    write_csv,
)
from .errors import (
    ConfigError,
    InsufficientDataError,
    ShapeError,
    UnimputableColumnError,
)
from .gcin import TrainConfig, impute_column, train_gcin
from .seeding import spawn_rng

logger = logging.getLogger(__name__)

# Columns with fewer observed rows than this fall back to the initial fill.
MIN_ROWS_FOR_TRAINING = 10


@dataclass
class GcmiConfig:
    """Settings for one multiple-imputation run."""

    max_chain_iters: int = 20
    m_imputations: int = 5
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    workers: int = 1

    def validate(self) -> None:
        if self.max_chain_iters < 1:
            raise ConfigError("max_chain_iters must be at least 1")
        if self.m_imputations < 1:
            raise ConfigError("m_imputations must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        self.train.validate()


@dataclass
class ConvergenceTrace:
    """Per-sweep dual criterion values and why the chain stopped."""

    gamma_num: list[float] = field(default_factory=list)
    gamma_cat: list[float] = field(default_factory=list)
    stop_reason: str = "both_stabilized"

    def __len__(self) -> int:
        return len(self.gamma_num)


@dataclass
class ImputationResult:
    """M completed datasets plus traces and run metadata."""

    completed: list[DataMatrix]
    traces: list[ConvergenceTrace]
    config: GcmiConfig
    chain_seeds: list[int]
    wall_time_s: float

    @property
    def m(self) -> int:
        return len(self.completed)


@dataclass
class PooledEstimate:
    """Multiple-imputation pooling of per-dataset (estimate, variance) pairs."""

    point: float
    within_var: float
    between_var: float
    total_var: float


def initial_fill(dm: DataMatrix) -> DataMatrix:
    """Complete a matrix with observed means (continuous) / modes (coded)."""
    out = dm.copy()
    for j, col in enumerate(dm.schema):
        miss = dm.mask[:, j]
        if not miss.any():
            continue
        observed = dm.values[~miss, j]
        if observed.size == 0:
            raise UnimputableColumnError(f"column {col.name!r} has no observed values")
        if col.kind == "continuous":
            fill = observed.mean()
        else:
            counts = np.bincount(observed.astype(int), minlength=len(col.levels))
            fill = float(np.argmax(counts))  # ties break to the smallest code
        out.values[miss, j] = fill
    out.mask = np.zeros_like(dm.mask)
    return out


def order_columns(dm: DataMatrix) -> np.ndarray:
    """Column indices sorted by ascending missing fraction, stable in ties."""
    return np.argsort(dm.missing_fraction(), kind="stable")


def convergence_gamma(
    X_new: np.ndarray,
    X_old: np.ndarray,
    mask: np.ndarray,
    schema: list[ColumnSchema],
) -> tuple[float, float]:
    """Dual criterion over originally-missing cells.

    gamma_num = sum((new - old)^2) / sum(new^2) over missing continuous
    cells (0/0 -> 0); gamma_cat = changed fraction of missing binary and
    categorical cells.  A kind with no missing cells contributes 0.
    """
    X_new = np.asarray(X_new, dtype=float)
    X_old = np.asarray(X_old, dtype=float)
    if X_new.shape != X_old.shape or X_new.shape != mask.shape:
        raise ShapeError("matrices and mask must share one shape")
    numeric = np.array([c.kind == "continuous" for c in schema])
    num_cells = mask & numeric[None, :]
    cat_cells = mask & ~numeric[None, :]

    gamma_num = 0.0
    if num_cells.any():
        diff2 = np.sum((X_new[num_cells] - X_old[num_cells]) ** 2)
        denom = np.sum(X_new[num_cells] ** 2)
        if denom > 0:
            gamma_num = float(diff2 / denom)
        elif diff2 > 0:
            gamma_num = float("inf")

    gamma_cat = 0.0
    if cat_cells.any():
        gamma_cat = float(np.mean(X_new[cat_cells] != X_old[cat_cells]))
    return gamma_num, gamma_cat


def _trainable_columns(dm: DataMatrix, order: np.ndarray) -> list[int]:
    cols = []
    for j in order:
        n_miss = int(dm.mask[:, j].sum())
        if n_miss == 0:
            continue
        n_obs = dm.n_rows - n_miss
        if n_obs < MIN_ROWS_FOR_TRAINING:
            logger.warning(
                "column %r has only %d observed rows; keeping its initial fill",
                dm.schema[j].name,
                n_obs,
            )
            continue
        cols.append(int(j))
    return cols


def _refit_column(
    values: np.ndarray,
    dm: DataMatrix,
    j: int,
    cfg: GcmiConfig,
    seed_path: tuple[int, ...],
) -> np.ndarray:
    """Train on obs(j) rows of the completed matrix; return imputations for miss(j)."""
    col = dm.schema[j]
    miss = dm.mask[:, j]
    slices = column_slices(dm.schema)
    encoded = encode_columns(values, dm.schema)
    cond = np.hstack([encoded[:, : slices[j].start], encoded[:, slices[j].stop :]])
    seed = int(spawn_rng(cfg.seed, *seed_path).integers(0, 2**63))
    pair, _ = train_gcin(
        cond[~miss],
        values[~miss, j],
        col.kind,
        replace(cfg.train, seed=seed),
        n_levels=len(col.levels) if col.kind == "categorical" else None,
        column_index=j,
    )
    return impute_column(pair, cond[miss], seed=seed ^ 1)


def sweep(
    values: np.ndarray,
    dm: DataMatrix,
    order: np.ndarray,
    cfg: GcmiConfig,
    seed_path: tuple[int, ...] = (),
    columns: list[int] | None = None,
) -> np.ndarray:
    """One pass over the trainable columns; returns the updated code matrix.

    Columns are refit one after another in ``order`` (or ``columns``, when
    given), each conditioning on the current completion of the others:
    its fresh imputations are written back before the next column trains.
    Each column's pair is fit from scratch per sweep.
    """
    if np.isnan(values).any():
        raise ValueError("sweep requires a completed matrix")
    cols = _trainable_columns(dm, order) if columns is None else columns
    current = values.copy()
    for j in cols:
        current[dm.mask[:, j], j] = _refit_column(current, dm, j, cfg, (*seed_path, j))
    return current


def _run_chain(
    dm: DataMatrix, cfg: GcmiConfig, cols: list[int], chain_seed: int
) -> tuple[np.ndarray, ConvergenceTrace]:
    filled = initial_fill(dm)
    order = order_columns(dm)
    trace = ConvergenceTrace()
    if not cols:
        return filled.values, trace

    chain_cfg = replace(cfg, seed=chain_seed)
    current = filled.values
    best = current
    best_score = np.inf
    prev: tuple[float, float] | None = None
    for s in range(cfg.max_chain_iters):
        new = sweep(current, dm, order, chain_cfg, seed_path=(s,), columns=cols)
        gamma = convergence_gamma(new, current, dm.mask, dm.schema)
        trace.gamma_num.append(gamma[0])
        trace.gamma_cat.append(gamma[1])
        score = gamma[0] + gamma[1]
        if score < best_score:
            best_score = score
            best = new
        current = new
        if prev is not None and not (gamma[0] < prev[0] or gamma[1] < prev[1]):
            trace.stop_reason = "both_stabilized"
            break
        prev = gamma
    else:
        trace.stop_reason = "max_iters"
    return best, trace


def gcmi_impute(dm: DataMatrix, cfg: GcmiConfig | None = None) -> ImputationResult:
    """Produce M completed datasets from a matrix with missing cells.

    Chains use independent derived seeds and may run in parallel
    (``cfg.workers``); results are identical either way.  Observed cells
    pass through untouched.
    """
    cfg = cfg or GcmiConfig()
    cfg.validate()
    if dm.n_cols < 2:
        raise InsufficientDataError("imputation needs at least 2 columns")
    for j, col in enumerate(dm.schema):
        if dm.mask[:, j].all():
            raise UnimputableColumnError(f"column {col.name!r} is entirely missing")

    start = time.perf_counter()
    cols = _trainable_columns(dm, order_columns(dm))  # the same for every chain
    chain_seeds = [
        int(spawn_rng(cfg.seed, 0, m).integers(0, 2**63)) for m in range(cfg.m_imputations)
    ]
    m = cfg.m_imputations
    if cfg.workers > 1 and m > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_run_chain, [dm] * m, [cfg] * m, [cols] * m, chain_seeds))
    else:
        outcomes = [_run_chain(dm, cfg, cols, s) for s in chain_seeds]

    completed = []
    traces = []
    for values, trace in outcomes:
        out = DataMatrix(list(dm.schema), values, np.zeros_like(dm.mask))
        completed.append(out)
        traces.append(trace)
    return ImputationResult(
        completed=completed,
        traces=traces,
        config=cfg,
        chain_seeds=chain_seeds,
        wall_time_s=time.perf_counter() - start,
    )


def rubin_pool(estimates: list[tuple[float, float]]) -> PooledEstimate:
    """Pool per-imputation (estimate, variance) pairs.

    point = mean estimate, within = mean variance, between = sample
    variance of the estimates, total = within + (1 + 1/M) * between.
    """
    if len(estimates) < 2:
        raise InsufficientDataError("pooling requires at least 2 imputations")
    theta = np.array([float(t) for t, _ in estimates])
    var = np.array([float(v) for _, v in estimates])
    if np.any(var < 0):
        raise ValueError("variances must be non-negative")
    m = theta.size
    point = float(theta.mean())
    within = float(var.mean())
    between = float(theta.var(ddof=1))
    # total = within + (1 + 1/m) * between, evaluated with a single division
    total = (m * within + (m + 1) * between) / m
    return PooledEstimate(point, within, between, total)


def save_result(result: ImputationResult, out_dir: str | Path, stem: str = "imputed") -> list[Path]:
    """Write M completed CSVs plus a JSON run manifest; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, dm in enumerate(result.completed, start=1):
        path = out_dir / f"{stem}_imp{i}.csv"
        write_csv(dm, path)
        paths.append(path)
    manifest = {
        "m_imputations": result.m,
        "chain_seeds": result.chain_seeds,
        "config": asdict(result.config),
        "traces": [
            {
                "gamma_num": t.gamma_num,
                "gamma_cat": t.gamma_cat,
                "stop_reason": t.stop_reason,
            }
            for t in result.traces
        ],
        "columns": [
            {"name": c.name, "kind": c.kind, "levels": list(c.levels)}
            for c in result.completed[0].schema
        ],
        "wall_time_s": result.wall_time_s,
        "files": [p.name for p in paths],
    }
    manifest_path = out_dir / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    paths.append(manifest_path)
    return paths
