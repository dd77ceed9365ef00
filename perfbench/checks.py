"""Reference computations and output checks, written apart from gcmi.

Nothing here calls into the gcmi package: the scorer, the pooling rule,
the mean/mode baseline and the Gaussian oracle are the benchmark's own,
so a fault in gcmi's versions cannot hide a fault in its imputations.
Each checker returns a list of problem strings; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np


def equicorrelated_cov(p: int, rho: float, sigma2: float, alpha: np.ndarray, noise_sd: float) -> np.ndarray:
    """Covariance of (X_1..X_p, Y) for X ~ N(0, sigma2 [(1-rho) I + rho 11'])
    and Y = X alpha + N(0, noise_sd^2)."""
    sx = sigma2 * ((1.0 - rho) * np.eye(p) + rho * np.ones((p, p)))
    sxy = sx @ alpha
    cov = np.empty((p + 1, p + 1))
    cov[:p, :p] = sx
    cov[:p, p] = sxy
    cov[p, :p] = sxy
    cov[p, p] = alpha @ sxy + noise_sd**2
    return cov


def oracle_fill(values: np.ndarray, mask: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Fill each row's missing cells with their conditional mean given the
    row's observed cells, under a zero-mean Gaussian with covariance cov."""
    out = np.where(mask, 0.0, values)
    patterns: dict[bytes, list[int]] = {}
    for i, row in enumerate(mask):
        if row.any():
            patterns.setdefault(row.tobytes(), []).append(i)
    for rows in patterns.values():
        miss = mask[rows[0]]
        obs = ~miss
        if not obs.any():
            continue
        coef = np.linalg.solve(cov[np.ix_(obs, obs)], cov[np.ix_(obs, miss)])
        out[np.ix_(rows, miss)] = values[np.ix_(rows, obs)] @ coef
    return out


def regression_coef(cov: np.ndarray, target: int) -> np.ndarray:
    """Oracle slope of column ``target`` on every other column."""
    others = [j for j in range(cov.shape[0]) if j != target]
    return np.linalg.solve(cov[np.ix_(others, others)], cov[others, target])


def mean_fill(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace missing cells with the column mean of the observed cells."""
    out = values.copy()
    for j in range(values.shape[1]):
        miss = mask[:, j]
        out[miss, j] = values[~miss, j].mean()
    return out


def scaled_rmse(truth: np.ndarray, filled: np.ndarray, mask: np.ndarray, coded: list[bool]) -> float:
    """RMSE over masked cells: continuous errors divided by the truth's
    column range, coded cells scored as 0/1 disagreement."""
    sq = 0.0
    count = 0
    for j in range(truth.shape[1]):
        cells = mask[:, j]
        if not cells.any():
            continue
        if coded[j]:
            err = (truth[cells, j] != filled[cells, j]).astype(float)
        else:
            spread = truth[:, j].max() - truth[:, j].min()
            err = (truth[cells, j] - filled[cells, j]) / (spread if spread > 0 else 1.0)
        sq += float(np.sum(err * err))
        count += int(cells.sum())
    return math.sqrt(sq / count)


def pool(completions: list[np.ndarray], coded: list[bool]) -> np.ndarray:
    """Cell means for continuous columns, majority code elsewhere (ties go
    to the smallest code)."""
    stack = np.stack(completions)
    out = stack.mean(axis=0)
    for j, is_coded in enumerate(coded):
        if not is_coded:
            continue
        codes = stack[:, :, j].astype(int)
        counts = np.zeros((codes.shape[1], codes.max() + 1))
        for m in range(codes.shape[0]):
            np.add.at(counts, (np.arange(codes.shape[1]), codes[m]), 1)
        out[:, j] = np.argmax(counts, axis=1)
    return out


def check_completions(inputs: np.ndarray, mask: np.ndarray, completions: list[np.ndarray]) -> list[list[str]]:
    """Per-dataset problems: observed cells must pass through bit for bit
    and every cell must be finite."""
    problems = []
    for k, values in enumerate(completions):
        found = []
        if values.shape != inputs.shape:
            found.append(f"dataset {k}: shape {values.shape} != {inputs.shape}")
        else:
            if not np.all(np.isfinite(values)):
                found.append(f"dataset {k}: non-finite cells")
            kept = values[~mask].view(np.uint64)
            if not np.array_equal(kept, inputs[~mask].view(np.uint64)):
                found.append(f"dataset {k}: observed cells changed")
        problems.append(found)
    return problems


def check_draws_differ(completions: list[np.ndarray], mask: np.ndarray) -> list[str]:
    """Multiple imputations are draws: every pair must differ somewhere on
    the missing cells."""
    problems = []
    for a in range(len(completions)):
        for b in range(a + 1, len(completions)):
            if np.array_equal(completions[a][mask], completions[b][mask]):
                problems.append(f"datasets {a} and {b} are identical on the missing cells")
    return problems


def check_accuracy_order(oracle: float, got: float, baseline: float) -> list[str]:
    """The imputation may not beat the Bayes-optimal oracle and must beat
    the mean fill."""
    problems = []
    if not oracle <= got:
        problems.append(f"rmse {got:.6f} beats the Gaussian oracle {oracle:.6f}")
    if not got < baseline:
        problems.append(f"rmse {got:.6f} is not below the mean fill's {baseline:.6f}")
    return problems


def check_csv_tokens(
    header: list[str],
    input_rows: list[list[str]],
    output_rows: list[list[str]],
    levels: dict[int, set[str]],
    missing_token: str = "",
) -> list[str]:
    """Checks one imputed CSV against the input CSV it came from: same
    header and shape, every observed token unchanged, no empty field, and
    every coded token one of that column's input levels."""
    problems = []
    if len(output_rows) != len(input_rows):
        return [f"{len(output_rows)} rows, expected {len(input_rows)}"]
    for i, (src, got) in enumerate(zip(input_rows, output_rows)):
        if len(got) != len(header):
            problems.append(f"row {i}: {len(got)} fields, expected {len(header)}")
            continue
        for j, (a, b) in enumerate(zip(src, got)):
            if b == "":
                problems.append(f"row {i} column {header[j]}: empty field")
            elif a != missing_token and a != b:
                problems.append(f"row {i} column {header[j]}: observed {a!r} became {b!r}")
            elif j in levels and b not in levels[j]:
                problems.append(f"row {i} column {header[j]}: unknown level {b!r}")
        if len(problems) > 20:
            problems.append("... further problems not listed")
            break
    return problems


def check_grid(rows: list[dict], methods: list[str], mechanisms: list[str], repeats: int) -> list[str]:
    """One row per method x mechanism with the repeats run, finite positive
    RMSE, and gcmi below mean on every mechanism."""
    problems = []
    table = {}
    for row in rows:
        key = (row["method"], row["mechanism"])
        if key in table:
            problems.append(f"duplicate row {key}")
        table[key] = row
    for method in methods:
        for mech in mechanisms:
            row = table.get((method, mech))
            if row is None:
                problems.append(f"no row for {method} x {mech}")
                continue
            if row["n_repeats"] != repeats:
                problems.append(f"{method} x {mech}: n_repeats {row['n_repeats']} != {repeats}")
            value = row["mean_rmse"]
            if not (math.isfinite(value) and value > 0):
                problems.append(f"{method} x {mech}: rmse {value!r} is not finite and positive")
    if len(table) != len(methods) * len(mechanisms):
        problems.append(f"{len(table)} rows, expected {len(methods) * len(mechanisms)}")
    for mech in mechanisms:
        g, m = table.get(("gcmi", mech)), table.get(("mean", mech))
        if g and m and not g["mean_rmse"] < m["mean_rmse"]:
            problems.append(f"{mech}: gcmi {g['mean_rmse']:.6f} not below mean {m['mean_rmse']:.6f}")
    return problems
