"""Synthetic complete-data generation and MCAR/MAR/MNAR amputation.

Rows are drawn i.i.d. from an equicorrelated Gaussian,
N(0, sigma2 * [(1 - rho) I + rho 11']), with a linear outcome
Y = X a + noise.  Amputation mechanisms return boolean masks
(True = missing): MCAR deletes cells with a constant probability,
MAR deletes target-column cells with probability
sigmoid(X_c' beta_j) driven by four fully observed conditioning
columns, and MNAR deletes a cell with probability
clamp(b0 + b1 * x, 0, 1), i.e. depending on the value itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .seeding import spawn_rng

# Default outcome coefficients for the 15-column synthetic table.
DEFAULT_COEFFS_15 = (
    0.542, -0.769, 0.298, -0.156, 0.778,
    -0.391, -0.629, 0.311, 0.913, -0.025,
    -0.676, 0.512, 0.840, -0.265, -0.678,
)

MECHANISMS = ("mcar", "mar", "mnar")
LAYOUTS = ("elementwise", "blockwise")


@dataclass
class SyntheticSpec:
    """Equicorrelated Gaussian covariates plus a linear outcome."""

    n: int = 2000
    p: int = 15
    rho: float = 0.3
    sigma2: float = 1.0
    alpha: tuple[float, ...] | None = None
    noise_sd: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1 or self.p < 2:
            raise ConfigError("need n >= 1 and p >= 2")
        # numpy allocates no array of more bytes than intp holds (8 per cell)
        if 8 * max(self.n * (self.p + 1), self.p * self.p) > np.iinfo(np.intp).max:
            raise ConfigError(
                f"n={self.n} and p={self.p} need an n x (p+1) table or a p x p covariance "
                "larger than numpy can address"
            )
        if self.sigma2 <= 0:
            raise ConfigError("sigma2 must be positive")
        if not (-1.0 / (self.p - 1) < self.rho < 1.0):
            raise ConfigError(
                f"equicorrelation requires rho in (-1/(p-1), 1); got rho={self.rho}, p={self.p}"
            )
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be non-negative")
        if self.alpha is not None and len(self.alpha) != self.p:
            raise ConfigError(f"alpha must have length p={self.p}")


@dataclass
class AmputationSpec:
    """Declarative description of one missingness mechanism.

    ``layout`` chooses between elementwise deletion and per-feature
    contiguous blocks with the same expected count per column.
    """

    mechanism: str = "mcar"
    rate: float = 0.3
    b0: float = -1.5
    b1: float = 3.0
    beta: np.ndarray | None = None
    cond_cols: tuple[int, ...] = (0, 1, 2, 3)
    target_cols: tuple[int, ...] | None = None
    layout: str = "elementwise"
    seed: int = 0

    def validate(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}")
        if self.layout not in LAYOUTS:
            raise ConfigError(f"layout must be one of {LAYOUTS}")
        if self.mechanism == "mcar" and not (0.0 <= self.rate <= 1.0):
            raise ConfigError("MCAR rate must lie in [0, 1]")
        for name in ("cond_cols", "target_cols"):
            cols = tuple(getattr(self, name) or ())
            if any(j < 0 for j in cols):
                raise ConfigError(f"{name} must be non-negative column indices, got {cols}")
        if self.mechanism == "mar":
            # with no conditioning column deletion ignores the data (MCAR at
            # 0.5); with no target column it deletes nothing
            if not self.cond_cols:
                raise ConfigError("cond_cols must be non-empty under mar")
            if self.target_cols is not None and not self.target_cols:
                raise ConfigError(
                    "target_cols must be non-empty under mar, or null for every other column"
                )
        shared = set(self.cond_cols) & set(self.target_cols or ())
        if shared:
            raise ConfigError(
                f"cond_cols must be disjoint from target_cols; both hold {sorted(shared)}"
            )

    @property
    def label(self) -> str:
        if self.mechanism == "mcar":
            return f"mcar@{self.rate:g}"
        if self.mechanism == "mnar":
            return f"mnar@b0={self.b0:g}"
        return "mar"


def gen_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X, Y); deterministic per spec.seed.

    When ``alpha`` is unset, the 15-column default coefficient vector is
    used for p = 15 and a fresh Unif[-1, 1]^p draw otherwise.
    """
    spec.validate()
    p = spec.p
    cov = spec.sigma2 * ((1.0 - spec.rho) * np.eye(p) + spec.rho * np.ones((p, p)))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"covariance is not positive definite: {exc}") from exc
    rng = spawn_rng(spec.seed, 0)
    X = rng.standard_normal((spec.n, p)) @ chol.T
    if spec.alpha is not None:
        alpha = np.asarray(spec.alpha, dtype=float)
    elif p == 15:
        alpha = np.asarray(DEFAULT_COEFFS_15)
    else:
        alpha = spawn_rng(spec.seed, 1).uniform(-1.0, 1.0, size=p)
    eps = spawn_rng(spec.seed, 2).standard_normal(spec.n) * spec.noise_sd
    Y = X @ alpha + eps
    return X, Y


def _layout_mask(probs: np.ndarray, layout: str, rng: np.random.Generator) -> np.ndarray:
    """Apply per-cell missing probabilities under the requested layout."""
    n, p = probs.shape
    if layout == "elementwise":
        return rng.random((n, p)) < probs
    mask = np.zeros((n, p), dtype=bool)
    for j in range(p):
        length = int(round(probs[:, j].sum()))
        if length <= 0:
            continue
        length = min(length, n)
        start = int(rng.integers(0, n - length + 1))
        mask[start : start + length, j] = True
    return mask


def _mar_probs(X: np.ndarray, spec: AmputationSpec, rng: np.random.Generator) -> np.ndarray:
    """Deletion probabilities sigmoid(X_c' beta_j) on the target columns, 0 elsewhere.

    The conditioning columns stay fully observed.  ``spec.beta`` is
    (len(cond_cols), len(target_cols)); when unset it draws from
    Unif[-1, 1] on ``rng``.  A table too narrow for the named columns, or
    with no target column left, raises ConfigError.
    """
    n, p = X.shape
    cond_cols = tuple(spec.cond_cols)
    need = max(cond_cols, default=-1) + 1
    if spec.target_cols is None:
        named = f"cond_cols {cond_cols}"
        if len(set(cond_cols)) >= need:
            need += 1  # room for at least one target column
        target_cols = tuple(j for j in range(p) if j not in cond_cols)
    else:
        target_cols = tuple(spec.target_cols)
        named = f"cond_cols {cond_cols} and target_cols {target_cols}"
        need = max(need, max(target_cols, default=-1) + 1)
    if p < need:
        raise ConfigError(f"MAR {named} need at least {need} columns; the table has {p}")
    beta = spec.beta
    if beta is None:
        beta = rng.uniform(-1.0, 1.0, size=(len(cond_cols), len(target_cols)))
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(cond_cols), len(target_cols)):
        raise ShapeError(
            f"beta must have shape {(len(cond_cols), len(target_cols))}, got {beta.shape}"
        )
    probs = np.zeros((n, p))
    probs[:, target_cols] = 1.0 / (1.0 + np.exp(-(X[:, cond_cols] @ beta)))
    return probs


def ampute(X: np.ndarray, spec: AmputationSpec) -> np.ndarray:
    """Boolean missingness mask (True = missing) for ``X`` under ``spec``.

    Each mechanism draws from its own generator under ``spec.seed``: path
    10 for MCAR, 11 for MAR (its beta draw first, then the mask) and 12
    for MNAR.
    """
    spec.validate()
    X = np.asarray(X, dtype=float)
    if spec.mechanism == "mcar":
        rng = spawn_rng(spec.seed, 10)
        probs = np.full(X.shape, float(spec.rate))
    elif spec.mechanism == "mar":
        rng = spawn_rng(spec.seed, 11)
        probs = _mar_probs(X, spec, rng)
    else:
        rng = spawn_rng(spec.seed, 12)
        probs = np.clip(spec.b0 + spec.b1 * X, 0.0, 1.0)
    return _layout_mask(probs, spec.layout, rng)
