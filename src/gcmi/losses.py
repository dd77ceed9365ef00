"""Least-squares adversarial losses, the accuracy penalty, and discrete
distribution oracles for checking the optimal-discriminator identity.

The discriminator drives real samples toward 2 and generated samples
toward 0; the generator drives discriminator outputs on generated samples
toward 1.  At the population optimum the discriminator equals
2*p / (p + g) pointwise and the generator objective is half the Pearson
chi-square divergence between p + g and 2g, which vanishes exactly when
p = g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import _sigmoid_clip

REAL_TARGET = 2.0
GEN_TARGET = 1.0


def discriminator_losses(d_real: np.ndarray, d_fake: np.ndarray) -> np.ndarray:
    """Squared-error loss pushing d_real -> 2 and d_fake -> 0, for each row
    of (k, n_real) real and (k, n_fake) fake scores.

    Each term averages over its own sample count, so real and generated
    batches may differ in size.
    """
    real_term = 0.5 * np.mean((d_real - REAL_TARGET) ** 2, axis=1)
    fake_term = 0.5 * np.mean(d_fake**2, axis=1)
    return real_term + fake_term


def generator_losses(d_fake: np.ndarray) -> np.ndarray:
    """Squared-error loss pushing discriminator scores on fakes toward 1,
    for each row of (k, n) fake scores."""
    return 0.5 * np.mean((d_fake - GEN_TARGET) ** 2, axis=1)


def _cross_entropy(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    return -x * np.log(x_hat) - (1.0 - x) * np.log(1.0 - x_hat)


def accuracy_penalty_terms(
    target: np.ndarray,
    generated: np.ndarray,
    kind: str,
    weight: float = 1.0,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row accuracy penalty of a generator head and the gradient of
    their mean, the batch penalty.

    ``target`` and ``generated`` are (n, width), with any stack axes in
    front, each stack member's batch its own.  Returns the (n,) penalty
    terms, written into ``out`` when given, and ``weight`` times the
    gradient of their mean w.r.t. ``generated``.  continuous (width 1):
    squared error.  binary and categorical (sigmoid heads, one column per
    level): cross-entropy summed over the row's columns, with
    ``generated`` clamped as far from 0 and 1 as the sigmoid head clamps
    its outputs (``nn._sigmoid_clip`` of its dtype: 1e-12 in float64), so
    that the logarithms stay finite.  Computed in the dtype of its inputs.
    A training loop stores the terms of each update and takes their mean
    row by row once per cycle, ``np.mean(terms, axis=1)``: the same bits
    as the mean of each row on its own.
    """
    n = generated.shape[-2]
    if out is None:
        out = np.empty(generated.shape[:-1], dtype=np.result_type(target, generated))
    if kind == "continuous":
        diff = generated - target
        np.square(diff, out=out[..., None])
        return out, weight * 2.0 * diff / n
    if kind in ("binary", "categorical"):
        eps = _sigmoid_clip(generated.dtype)
        clipped = np.minimum(np.maximum(generated, eps), 1.0 - eps)
        np.add.reduce(_cross_entropy(target, clipped), axis=-1, out=out)
        return out, weight * (clipped - target) / (clipped * (1.0 - clipped)) / n
    raise ValueError(f"unknown kind {kind!r}; expected 'continuous', 'binary' or 'categorical'")


@dataclass
class DiscreteDist:
    """Finite distribution: support points with probabilities summing to 1."""

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        self.support = tuple(self.support)
        self.probs = np.asarray(self.probs, dtype=float)
        if len(self.support) != self.probs.size:
            raise ValueError("support and probabilities must have equal length")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {self.probs.sum()!r}")

    def prob_of(self, point) -> float:
        try:
            return float(self.probs[self.support.index(point)])
        except ValueError:
            return 0.0


def optimal_discriminator(p: DiscreteDist, g: DiscreteDist, point) -> float:
    """Closed-form minimiser of the discriminator loss at one point: 2p/(p+g)."""
    pp = p.prob_of(point)
    gp = g.prob_of(point)
    if pp + gp <= 0.0:
        raise ValueError(f"discriminator undefined at {point!r}: no mass under p or g")
    return 2.0 * pp / (pp + gp)


def chi2_generator_objective(p: DiscreteDist, g: DiscreteDist) -> float:
    """Population generator objective at the optimal discriminator.

    Equals 0.5 * sum (p - g)^2 / (p + g); non-negative, zero iff p = g.
    """
    if p.support != g.support:
        raise ValueError("distributions must share an identical support")
    denom = p.probs + g.probs
    diff2 = (p.probs - g.probs) ** 2
    positive = denom > 0
    return float(0.5 * np.sum(diff2[positive] / denom[positive]))
