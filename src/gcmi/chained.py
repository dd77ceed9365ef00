"""Chained-equation multiple imputation driven by per-column adversarial fits.

Each of M independent chains starts from a mean/mode fill, orders
columns by ascending missing fraction, and sweeps: for every column with
missing cells, fit a generator/discriminator pair on the rows where that
column is observed (conditioning on the current completion of the other
columns) and regenerate the missing cells.  The first sweep fits every
pair from scratch; each later one refits a column warm from the pair the
same chain fitted for it in the first sweep, for a fifth of the
generator-update budget (``train_gcin``'s ``start``; a cycle that budget
cuts short runs its share of discriminator updates, rounded up), as the
sweeps are iterations of one set of conditional models (van Buuren &
Groothuis-Oudshoorn 2011).  Starting every later sweep from the first
sweep's pair, not the last one's, keeps each pair's training at 1.2
budgets however many sweeps run: carried from sweep to sweep, training
piles up, the draws narrow, and the stop rule below sees the change
between sweeps fall for as long as the cap allows.  A dual criterion
tracks the relative squared change of continuous cells and the change
proportion of binary/categorical cells between sweeps; the chain
continues while either improves and keeps the sweep with the smallest
combined value.  Estimates from the M completed datasets pool with the
usual within/between variance decomposition.

``gcmi_impute`` splits the M chains into ``min(workers, M)`` contiguous
groups, one per process, and runs the chains of a group in lock-step:
each sweep refits every column once for all of them, one stacked
``train_gcin`` call per column, since the mask, and so each column's
observed rows, is shared.  A chain that meets its stop rule leaves the
group, and its pairs with it.  Each chain keeps its own seeds and pairs,
so its numbers are bit for bit its run in a group of one, whatever its
group.
"""

from __future__ import annotations

import json
import logging
import re
import time
from contextlib import closing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    ColumnSchema,
    DataMatrix,
    ObservedText,
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
from .gcin import GcinPair, TrainConfig, impute_column, train_gcin
from .seeding import derive_seed, parallel_map

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
    """Per-sweep dual criterion values and why the chain stopped:
    ``both_stabilized``, ``max_iters``, or ``no_trainable_columns`` for a
    chain that ran no sweep because no column has both missing cells and
    enough observed rows to train on."""

    gamma_num: list[float] = field(default_factory=list)
    gamma_cat: list[float] = field(default_factory=list)
    stop_reason: str = "both_stabilized"

    def __len__(self) -> int:
        return len(self.gamma_num)


@dataclass
class ImputationResult:
    """M completed datasets plus traces and run metadata.

    ``wall_time_s`` runs from the chains' start to the last table's end,
    so it includes the tables ``gcmi_impute`` wrote as chains
    finished; ``files`` lists those tables' paths, in chain order (empty
    when it was given no output directory).
    """

    completed: list[DataMatrix]
    traces: list[ConvergenceTrace]
    config: GcmiConfig
    chain_seeds: list[int]
    wall_time_s: float
    files: list[Path] = field(default_factory=list)

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
    values = dm.values.copy()
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
        values[miss, j] = fill
    return DataMatrix(list(dm.schema), values)


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


def _trainable_columns(dm: DataMatrix) -> list[int]:
    """Columns with missing cells and enough observed rows to train on, by
    ascending missing fraction; the rest keep their initial fill."""
    cols = []
    for j in order_columns(dm):
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


def sweep(
    values: np.ndarray,
    dm: DataMatrix,
    cols: list[int],
    train: TrainConfig,
    seeds: list[int],
    index: int,
    start: dict[int, list[GcinPair]] | None = None,
) -> tuple[np.ndarray, dict[int, list[GcinPair]]]:
    """Sweep ``index`` of a group of chains over the columns ``cols``;
    returns the updated code matrices and, for each column, the K chains'
    new pairs.

    ``values`` holds one completion per chain, (K, n, p), and ``seeds`` the
    K chains' seeds.  Columns are refit one after another in the order
    given, each conditioning on the current completion of the others: its
    fresh imputations are written back before the next column trains.
    Column j is fitted on its observed rows with one ``train_gcin`` call
    for all K chains, chain k's pair with the fit seed
    ``s = derive_seed(seeds[k], index, j)``: from scratch without
    ``start``, and with it warm from ``start[j][k]``, the pair the
    chain's first sweep returned.  Chain k then imputes j's missing rows
    with its pair and the seed ``derive_seed(s, 3)`` (see ``seeding``).
    The completions are encoded once per sweep; after each column only
    that column's slice of its missing rows is encoded again.  Each
    chain's result is bit for bit its sweep in a group of one.
    """
    if np.isnan(values).any():
        raise ValueError("sweep requires a completed matrix")
    current = np.array(values, dtype=float)
    n_chains, n_rows, n_cols = current.shape
    encoded = encode_columns(current.reshape(-1, n_cols), dm.schema).reshape(n_chains, n_rows, -1)
    slices = column_slices(dm.schema)
    chains = np.arange(n_chains)
    pairs = {}
    for j in cols:
        col, miss, sl = dm.schema[j], dm.mask[:, j], slices[j]
        fit_seeds = [derive_seed(seed, index, j) for seed in seeds]
        # each side's rows of the other columns, in one gather per side
        others = np.r_[: sl.start, sl.stop : encoded.shape[-1]]
        cond_obs, cond_mis = (encoded[np.ix_(chains, rows, others)] for rows in (~miss, miss))
        fits = train_gcin(
            cond_obs,
            current[:, ~miss, j],
            col,
            train,
            fit_seeds,
            start=None if start is None else start[j],
        )
        pairs[j] = [pair for pair, _ in fits]
        current[:, miss, j] = [
            impute_column(pair, chain_cond, seed=derive_seed(seed, 3))
            for pair, chain_cond, seed in zip(pairs[j], cond_mis, fit_seeds)
        ]
        fresh = encode_columns(current[:, miss, j].reshape(-1, 1), [col])
        encoded[:, miss, sl] = fresh.reshape(n_chains, -1, fresh.shape[1])
    return current, pairs


def _run_chains(
    dm: DataMatrix, cfg: GcmiConfig, cols: list[int], chain_seeds: list[int]
) -> list[tuple[np.ndarray, ConvergenceTrace]]:
    """Run the chains of ``chain_seeds`` in lock-step: each ``sweep`` call
    refits every column once for every chain still running, from the
    second on warm from the pairs the first one returned, and a chain
    that meets its stop rule leaves the group with its pairs.  Returns
    each chain's values for the missing cells, ``completed[dm.mask]``
    (only those travel back from a pool worker; the pairs never do), and
    its trace, in seed order."""
    filled = initial_fill(dm)
    traces = [ConvergenceTrace() for _ in chain_seeds]
    if not cols:
        for trace in traces:
            trace.stop_reason = "no_trainable_columns"
        return [(filled.values[dm.mask], trace) for trace in traces]

    # each chain's missing cells at its best sweep: a copy, so that a group's
    # finished sweeps are not kept whole
    best = [filled.values[dm.mask]] * len(chain_seeds)
    # a running minimum, not min() over the trace, so that a NaN sum is
    # never the best and never hides a later one
    best_score = [np.inf] * len(chain_seeds)
    live = list(range(len(chain_seeds)))  # the chain in each row of ``current``
    current = np.stack([filled.values] * len(chain_seeds))
    first = None  # each column's pairs from the first sweep, one per row of ``current``
    for s in range(cfg.max_chain_iters):
        seeds = [chain_seeds[c] for c in live]
        new, pairs = sweep(current, dm, cols, cfg.train, seeds, s, first)
        if first is None:
            first = pairs
        running = []
        for a, c in enumerate(live):
            trace = traces[c]
            gamma_num, gamma_cat = convergence_gamma(new[a], current[a], dm.mask, dm.schema)
            if gamma_num + gamma_cat < best_score[c]:
                best_score[c] = gamma_num + gamma_cat
                best[c] = new[a][dm.mask]
            # a chain sweeps on while either gamma falls below its last one;
            # one that leaves keeps the trace's default reason, both_stabilized
            if not trace or gamma_num < trace.gamma_num[-1] or gamma_cat < trace.gamma_cat[-1]:
                running.append(a)
            trace.gamma_num.append(gamma_num)
            trace.gamma_cat.append(gamma_cat)
        live = [live[a] for a in running]
        if not live:
            break
        current = new[running]
        first = {j: [fits[a] for a in running] for j, fits in first.items()}
    else:
        for c in live:
            traces[c].stop_reason = "max_iters"
    return list(zip(best, traces))


def _table_path(out_dir: Path, stem: str, i: int) -> Path:
    return out_dir / f"{stem}_imp{i}.csv"


def _manifest_path(out_dir: Path, stem: str) -> Path:
    return out_dir / f"{stem}_manifest.json"


def _remove_earlier_run(out_dir: Path, stem: str, m: int) -> None:
    """Remove the manifest and every table beyond the M-th that an earlier
    run into ``out_dir`` under ``stem`` left; this run overwrites the rest."""
    _manifest_path(out_dir, stem).unlink(missing_ok=True)
    table = re.compile(re.escape(stem) + r"_imp([1-9][0-9]*)\.csv")
    for path in out_dir.iterdir():
        match = table.fullmatch(path.name)
        if match and int(match[1]) > m:
            path.unlink()


def gcmi_impute(
    dm: DataMatrix,
    cfg: GcmiConfig | None = None,
    out_dir: str | Path | None = None,
    stem: str = "imputed",
) -> ImputationResult:
    """Produce M completed datasets from a matrix with missing cells.

    Chains use independent derived seeds.  They are split into
    ``min(cfg.workers, M)`` contiguous groups, one pool task each (serial
    for one group), and a group's chains run in lock-step (see
    ``_run_chains``); each chain's result is the same at any worker count.
    Observed cells pass through untouched.

    With ``out_dir``, chain i's completed table is written to
    ``{out_dir}/{stem}_imp{i}.csv`` as soon as the groups of chains 1..i
    are done, the tables sharing one formatting of the observed continuous
    cells, and the paths are recorded in ``files``; ``save_result`` with
    the same directory and stem then writes only the manifest.  The
    manifest and the tables beyond the M-th that an earlier run left
    there are removed first, and if a chain or a write fails, the tables
    written so far are removed before the error propagates.
    """
    cfg = cfg or GcmiConfig()
    cfg.validate()
    if dm.n_cols < 2:
        raise InsufficientDataError("imputation needs at least 2 columns")
    for j, col in enumerate(dm.schema):
        if dm.mask[:, j].all():
            raise UnimputableColumnError(f"column {col.name!r} is entirely missing")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _remove_earlier_run(out_dir, stem, cfg.m_imputations)

    start = time.perf_counter()
    cols = _trainable_columns(dm)  # the same for every chain
    m = cfg.m_imputations
    chain_seeds = [derive_seed(cfg.seed, 0, i) for i in range(m)]
    n_groups = min(cfg.workers, m)
    groups = [chain_seeds[g * m // n_groups : (g + 1) * m // n_groups] for g in range(n_groups)]
    tasks = [(dm, cfg, cols, group) for group in groups]
    completed, traces, files = [], [], []
    observed = None  # built when the first table is written, while chains still run
    try:
        with closing(parallel_map(_run_chains, tasks, cfg.workers)) as outcomes:
            chains = (chain for group in outcomes for chain in group)
            for i, (imputed, trace) in enumerate(chains, start=1):
                values = dm.values.copy()
                values[dm.mask] = imputed
                out = DataMatrix(list(dm.schema), values)
                completed.append(out)
                traces.append(trace)
                if out_dir is not None:
                    if observed is None:
                        observed = ObservedText(dm)
                    files.append(_table_path(out_dir, stem, i))
                    write_csv(out, files[-1], observed)
    except BaseException:
        for path in files:
            path.unlink(missing_ok=True)
        raise
    return ImputationResult(
        completed=completed,
        traces=traces,
        config=cfg,
        chain_seeds=chain_seeds,
        wall_time_s=time.perf_counter() - start,
        files=files,
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
    """Write the M completed CSVs, skipping those already in
    ``result.files``, then the JSON run manifest, which is written last and
    so marks a complete run; returns the M CSV paths and the manifest's."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, dm in enumerate(result.completed, start=1):
        path = _table_path(out_dir, stem, i)
        if path not in result.files:
            write_csv(dm, path)
        paths.append(path)
    manifest = {
        "m_imputations": result.m,
        "chain_seeds": result.chain_seeds,
        "config": asdict(result.config),
        "traces": [asdict(t) for t in result.traces],
        "columns": [asdict(c) for c in result.completed[0].schema],
        "wall_time_s": result.wall_time_s,
        "files": [p.name for p in paths],
    }
    manifest_path = _manifest_path(out_dir, stem)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    paths.append(manifest_path)
    return paths
