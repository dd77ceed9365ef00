"""Adversarial losses, accuracy penalty, and the discrete-distribution
oracles for the optimal discriminator / chi-square identity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmi import (
    DiscreteDist,
    chi2_generator_objective,
    optimal_discriminator,
)
from gcmi.losses import (
    _cross_entropy,
    accuracy_penalty_terms,
    discriminator_losses,
    generator_losses,
)
from gcmi.nn import _sigmoid_clip


def accuracy_penalty(x, x_hat, kind: str):
    """Float64 reference of the supervised penalty on generated values for
    observed targets, elementwise: squared error for continuous, and for
    binary cross-entropy, requiring x in {0, 1} and x_hat strictly inside
    (0, 1).  Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if kind == "continuous":
        out = (x_hat - x) ** 2
    elif kind == "binary":
        if not np.all((x == 0.0) | (x == 1.0)):
            raise ValueError("binary accuracy penalty requires x in {0, 1}")
        if not np.all((x_hat > 0.0) & (x_hat < 1.0)):
            raise ValueError("binary accuracy penalty requires x_hat in the open interval (0, 1)")
        out = _cross_entropy(x, x_hat)
    else:
        raise ValueError(f"unknown kind {kind!r}; expected 'continuous' or 'binary'")
    return float(out) if out.ndim == 0 else out


def random_dist_pair(rng, size):
    """Two distributions on a shared support of the given size."""
    support = tuple(range(size))
    p = rng.random(size) + 1e-3
    g = rng.random(size) + 1e-3
    return DiscreteDist(support, p / p.sum()), DiscreteDist(support, g / g.sum())


def grid_minimize_pointwise_disc(p, g, levels=21, rounds=15):
    """Per-support-point grid minimisation of the population discriminator loss.

    Independent oracle: the pointwise integrand is
    p(x)(d - 2)^2 + g(x) d^2, minimised over d in [0, 2] by nested grid
    refinement.  Evaluation runs in exact rational arithmetic because the
    induced generator objective is first-order sensitive to discriminator
    error, so the minimiser must be localised far below the ~1e-8 limit
    that float64 loss comparisons allow.
    """
    best = []
    for pp, gp in zip(p.probs, g.probs):
        pf, gf = Fraction(float(pp)), Fraction(float(gp))
        lo, hi = Fraction(0), Fraction(2)
        d_best = Fraction(1)
        for _ in range(rounds):
            step = (hi - lo) / (levels - 1)
            grid = [lo + i * step for i in range(levels)]
            vals = [pf * (d - 2) ** 2 + gf * d * d for d in grid]
            d_best = grid[min(range(levels), key=vals.__getitem__)]
            lo = max(Fraction(0), d_best - step)
            hi = min(Fraction(2), d_best + step)
            if step < Fraction(1, 10**13):
                break
        best.append(float(d_best))
    return np.array(best)


def population_generator_loss(p, g, d_values):
    """Population generator objective at the given discriminator values
    (both real and generated expectations of (d - 1)^2)."""
    real = 0.5 * np.sum(p.probs * (d_values - 1.0) ** 2)
    fake = 0.5 * np.sum(g.probs * (d_values - 1.0) ** 2)
    return real + fake


class TestDiscriminatorLoss:
    """``discriminator_losses`` takes (k, n) scores and gives one loss per row."""

    def test_targets_met_exactly_zero(self):
        real, fake = np.array([[2.0, 2.0]]), np.array([[0.0, 0.0]])
        assert discriminator_losses(real, fake).tolist() == [0.0]

    def test_hand_value_middle(self):
        assert discriminator_losses(np.array([[1.0]]), np.array([[1.0]])) == pytest.approx([1.0])

    def test_hand_value_half(self):
        real, fake = np.array([[2.0], [1.0]]), np.array([[1.0], [1.0]])
        assert discriminator_losses(real, fake) == pytest.approx([0.5, 1.0])

    def test_separate_averaging(self):
        # real and fake terms each average over their own count
        real, fake = np.array([[2.0, 2.0, 2.0]]), np.array([[1.0]])
        assert discriminator_losses(real, fake) == pytest.approx([0.5])

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=8))
    def test_non_negative(self, values):
        assert discriminator_losses(np.array([values]), np.array([values]))[0] >= 0.0


class TestGeneratorLoss:
    def test_zero_at_target(self):
        assert generator_losses(np.array([[1.0, 1.0, 1.0]])).tolist() == [0.0]

    def test_hand_values(self):
        assert generator_losses(np.array([[0.0, 2.0], [3.0, 3.0]])) == pytest.approx([0.5, 2.0])

    @given(st.lists(st.floats(0, 2), min_size=1, max_size=10))
    def test_zero_iff_all_outputs_one(self, values):
        loss = generator_losses(np.array([values]))[0]
        assert loss >= 0.0
        assert (loss == 0.0) == all(v == 1.0 for v in values)


class TestAccuracyPenalty:
    def test_continuous_exact_zero(self):
        assert accuracy_penalty(1.0, 1.0, "continuous") == 0.0

    def test_continuous_hand_value(self):
        assert accuracy_penalty(0.0, 2.0, "continuous") == pytest.approx(4.0)

    def test_binary_hand_value(self):
        assert accuracy_penalty(1.0, 0.5, "binary") == pytest.approx(np.log(2.0))

    def test_binary_domain_errors(self):
        with pytest.raises(ValueError):
            accuracy_penalty(1.0, 1.0, "binary")  # x_hat must be inside (0, 1)
        with pytest.raises(ValueError):
            accuracy_penalty(0.5, 0.5, "binary")  # x must be 0 or 1

    def test_vectorized(self):
        out = accuracy_penalty(np.array([0.0, 1.0]), np.array([0.5, 0.5]), "binary")
        assert np.allclose(out, np.log(2.0))


class TestAccuracyPenaltyGrad:
    @pytest.mark.parametrize("kind,width", [("continuous", 1), ("binary", 1), ("categorical", 3)])
    def test_gradient_matches_finite_differences(self, kind, width):
        rng = np.random.default_rng(37)
        n, weight = 7, 0.7
        if kind == "continuous":
            target = rng.normal(size=(n, width))
            generated = rng.normal(size=(n, width))
        else:
            target = (rng.random((n, width)) < 0.5).astype(float)
            generated = rng.uniform(0.05, 0.95, size=(n, width))
        _, grad = accuracy_penalty_terms(target, generated, kind, weight)
        h = 1e-6
        for idx in np.ndindex(*generated.shape):
            up, down = generated.copy(), generated.copy()
            up[idx] += h
            down[idx] -= h
            fd = weight * (
                accuracy_penalty_terms(target, up, kind)[0].mean()
                - accuracy_penalty_terms(target, down, kind)[0].mean()
            ) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_value_is_row_mean_of_elementwise_penalty(self):
        target = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        generated = np.array([[0.2, 0.7, 0.1], [0.6, 0.3, 0.1]])
        terms, _ = accuracy_penalty_terms(target, generated, "categorical")
        expected = accuracy_penalty(target, generated, "binary").sum(axis=1)
        assert terms == pytest.approx(expected)
        terms, _ = accuracy_penalty_terms(target[:, :1], generated[:, :1], "continuous")
        expected = accuracy_penalty(target[:, :1], generated[:, :1], "continuous")[:, 0]
        assert terms == pytest.approx(expected)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            accuracy_penalty_terms(np.zeros((2, 1)), np.zeros((2, 1)), "ordinal")


class TestPenaltyReducedOncePerCycle:
    """A training cycle stores each update's per-row penalty terms and
    reduces them row by row once; in float32 that must give, bit for bit,
    the batch penalty of each update computed on its own."""

    @staticmethod
    def _update(rng, kind, n, width):
        if kind == "continuous":
            target = rng.normal(size=(n, width))
            generated = rng.normal(size=(n, width))
        else:
            levels = rng.integers(0, width, n) if kind == "categorical" else rng.integers(0, 2, n)
            target = np.eye(max(width, 2))[levels][:, -width:]
            generated = rng.uniform(0.0, 1.0, size=(n, width))
            generated[:3, 0] = [0.0, 1.0, 0.5]  # 0 and 1 are clamped to the clip
        return target.astype(np.float32), generated.astype(np.float32)

    @staticmethod
    def _batch_penalty(target, generated, kind):
        """The penalty of one update as a mean over the whole batch."""
        if kind == "continuous":
            return float(np.mean((generated - target) ** 2))
        eps = _sigmoid_clip(generated.dtype)
        clipped = np.clip(generated, eps, 1.0 - eps)
        return float(np.mean(_cross_entropy(target, clipped).sum(axis=1)))

    @pytest.mark.parametrize("kind,width", [("continuous", 1), ("binary", 1), ("categorical", 4)])
    @pytest.mark.parametrize("n", [256, 37])
    def test_row_means_equal_per_update_penalties(self, kind, width, n):
        rng = np.random.default_rng(83)
        updates = [self._update(rng, kind, n, width) for _ in range(7)]
        terms = np.empty((len(updates), n), dtype=np.float32)
        per_update = []
        for j, (target, generated) in enumerate(updates):
            out = terms[j]
            row, grad = accuracy_penalty_terms(target, generated, kind, 0.7, out)
            assert row is out
            assert grad.dtype == np.float32
            per_update.append(self._batch_penalty(target, generated, kind))
        reduced = np.mean(terms, axis=1)
        assert reduced.dtype == np.float32
        assert reduced.astype(float).tolist() == per_update
        # the cycle's penalty, as the trace records it
        assert float(np.mean(reduced.astype(float))) == float(np.mean(per_update))


class TestDiscreteDist:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            DiscreteDist((0, 1), [0.7, 0.7])
        with pytest.raises(ValueError):
            DiscreteDist((0, 1), [-0.1, 1.1])

    def test_prob_of_absent_point_is_zero(self):
        d = DiscreteDist((0, 1), [0.5, 0.5])
        assert d.prob_of(7) == 0.0


class TestOptimalDiscriminator:
    def test_equal_distributions_give_one(self):
        rng = np.random.default_rng(1)
        p, _ = random_dist_pair(rng, 5)
        for point in p.support:
            assert optimal_discriminator(p, p, point) == pytest.approx(1.0)

    def test_hand_value(self):
        p = DiscreteDist((0, 1), [0.8, 0.2])
        g = DiscreteDist((0, 1), [0.4, 0.6])
        assert optimal_discriminator(p, g, 0) == pytest.approx(4.0 / 3.0)

    def test_no_real_mass_gives_zero(self):
        p = DiscreteDist((0, 1), [0.0, 1.0])
        g = DiscreteDist((0, 1), [0.5, 0.5])
        assert optimal_discriminator(p, g, 0) == 0.0

    def test_undefined_point_rejected(self):
        p = DiscreteDist((0, 1), [0.0, 1.0])
        with pytest.raises(ValueError):
            optimal_discriminator(p, p, 0)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, g = random_dist_pair(rng, 6)
            for point in p.support:
                assert 0.0 <= optimal_discriminator(p, g, point) <= 2.0


class TestChi2Objective:
    def test_equal_distributions_zero(self):
        rng = np.random.default_rng(2)
        p, _ = random_dist_pair(rng, 4)
        assert chi2_generator_objective(p, p) == 0.0

    def test_disjoint_hand_value(self):
        p = DiscreteDist((0, 1), [1.0, 0.0])
        g = DiscreteDist((0, 1), [0.0, 1.0])
        assert chi2_generator_objective(p, g) == pytest.approx(1.0)

    def test_small_difference_hand_value(self):
        p = DiscreteDist((0, 1), [0.6, 0.4])
        g = DiscreteDist((0, 1), [0.4, 0.6])
        assert chi2_generator_objective(p, g) == pytest.approx(0.04)

    def test_support_mismatch_rejected(self):
        p = DiscreteDist((0, 1), [0.5, 0.5])
        g = DiscreteDist((0, 2), [0.5, 0.5])
        with pytest.raises(ValueError):
            chi2_generator_objective(p, g)

    @given(seed=st.integers(0, 10_000), size=st.integers(2, 10))
    @settings(max_examples=50, deadline=None)
    def test_positivity_zero_iff_equal(self, seed, size):
        rng = np.random.default_rng(seed)
        p, g = random_dist_pair(rng, size)
        val = chi2_generator_objective(p, g)
        assert val >= 0.0
        assert (val < 1e-18) == bool(np.max(np.abs(p.probs - g.probs)) < 1e-12)


class TestOptimalDiscriminatorIdentity:
    """Grid search over the population discriminator loss lands on the
    closed form, and the induced generator objective equals the
    chi-square expression."""

    @pytest.mark.parametrize("seed", range(10))
    def test_grid_minimum_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        p, g = random_dist_pair(rng, int(rng.integers(2, 11)))
        d_grid = grid_minimize_pointwise_disc(p, g)
        d_closed = np.array([optimal_discriminator(p, g, x) for x in p.support])
        assert np.max(np.abs(d_grid - d_closed)) < 1e-6
        induced = population_generator_loss(p, g, d_grid)
        assert abs(induced - chi2_generator_objective(p, g)) < 1e-9
