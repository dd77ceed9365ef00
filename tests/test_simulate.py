"""Synthetic data generation and the three amputation mechanisms, with
statistical verification of each mechanism's signature."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from gcmi import (
    AmputationSpec,
    ConfigError,
    SyntheticSpec,
    ampute,
    gen_synthetic,
)
from gcmi.simulate import DEFAULT_COEFFS_15


class TestGenSynthetic:
    def test_default_coefficient_vector(self):
        assert DEFAULT_COEFFS_15 == (
            0.542, -0.769, 0.298, -0.156, 0.778,
            -0.391, -0.629, 0.311, 0.913, -0.025,
            -0.676, 0.512, 0.840, -0.265, -0.678,
        )
        assert len(DEFAULT_COEFFS_15) == 15

    def test_independence_case(self):
        X, _ = gen_synthetic(SyntheticSpec(n=2000, p=6, rho=0.0, seed=1))
        corr = np.corrcoef(X.T)
        off = corr[~np.eye(6, dtype=bool)]
        assert abs(off.mean()) < 0.05
        # each estimate has sd ~ 1/sqrt(n); allow a 4.5-sigma envelope on the max
        assert np.all(np.abs(off) < 4.5 / np.sqrt(2000))

    def test_equicorrelated_pairwise_covariance(self):
        X, _ = gen_synthetic(SyntheticSpec(n=2000, p=15, rho=0.3, seed=2))
        cov = np.cov(X.T)
        off = cov[~np.eye(15, dtype=bool)]
        assert abs(off.mean() - 0.3) < 0.05
        assert np.all(np.abs(off - 0.3) < 4.5 * np.sqrt((1 + 0.3**2) / 2000))
        assert np.all(np.abs(np.diag(cov) - 1.0) < 0.1)

    def test_covariance_frobenius_convergence(self):
        spec = SyntheticSpec(n=20_000, p=10, rho=0.3, seed=3)
        X, _ = gen_synthetic(spec)
        target = (1 - 0.3) * np.eye(10) + 0.3 * np.ones((10, 10))
        err = np.linalg.norm(np.cov(X.T) - target)
        assert err < 0.1

    def test_outcome_uses_default_coeffs_at_p15(self):
        spec = SyntheticSpec(n=500, p=15, rho=0.3, noise_sd=0.0, seed=4)
        X, Y = gen_synthetic(spec)
        assert np.allclose(Y, X @ np.array(DEFAULT_COEFFS_15))

    def test_deterministic_per_seed(self):
        a = gen_synthetic(SyntheticSpec(n=50, p=4, seed=9))
        b = gen_synthetic(SyntheticSpec(n=50, p=4, seed=9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(SyntheticSpec(p=5, rho=-0.5))
        with pytest.raises(ValueError):
            gen_synthetic(SyntheticSpec(p=5, rho=1.0))

    def test_custom_alpha_length_checked(self):
        with pytest.raises(ValueError):
            SyntheticSpec(p=5, alpha=(1.0, 2.0)).validate()


class TestMcar:
    def test_zero_rate_empty_mask(self):
        X = np.zeros((20, 4))
        assert not ampute(X, AmputationSpec("mcar", rate=0.0, seed=0)).any()

    def test_unit_rate_full_mask(self):
        X = np.zeros((20, 4))
        assert ampute(X, AmputationSpec("mcar", rate=1.0, seed=0)).all()

    def test_rate_within_binomial_bound(self):
        X = np.zeros((2000, 15))
        mask = ampute(X, AmputationSpec("mcar", rate=0.3, seed=5))
        n_cells = 2000 * 15
        bound = 3 * np.sqrt(0.3 * 0.7 / n_cells)
        assert abs(mask.mean() - 0.3) < bound

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ampute(np.zeros((5, 2)), AmputationSpec("mcar", rate=1.5))

    def test_deterministic(self):
        X = np.zeros((50, 5))
        spec = AmputationSpec("mcar", rate=0.4, seed=7)
        assert np.array_equal(ampute(X, spec), ampute(X, spec))

    def test_mask_independent_of_values(self):
        """Chi-square of mask vs value quartiles, non-significant at 1%
        in at least 95 of 100 seeds."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 1))
        quartile = np.digitize(X[:, 0], np.quantile(X[:, 0], [0.25, 0.5, 0.75]))
        ok = 0
        for seed in range(100):
            mask = ampute(X, AmputationSpec("mcar", rate=0.3, seed=seed))[:, 0]
            table = np.zeros((2, 4))
            for q in range(4):
                table[0, q] = np.sum((quartile == q) & mask)
                table[1, q] = np.sum((quartile == q) & ~mask)
            _, p_value, _, _ = stats.chi2_contingency(table)
            ok += p_value > 0.01
        assert ok >= 95


class TestMar:
    def test_zero_beta_gives_half_rate(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(2000, 8))
        beta = np.zeros((4, 4))
        mask = ampute(X, AmputationSpec("mar", beta=beta, seed=3))
        rates = mask[:, 4:].mean(axis=0)
        assert np.all(np.abs(rates - 0.5) < 0.05)

    def test_conditioning_columns_never_missing(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 8))
        mask = ampute(X, AmputationSpec("mar", seed=4))
        assert not mask[:, :4].any()

    def test_zero_conditioning_row_is_coin_flip(self):
        X = np.zeros((1, 6))
        hits = sum(ampute(X, AmputationSpec("mar", seed=s))[0, 4:].sum() for s in range(500))
        rate = hits / (500 * 2)
        assert abs(rate - 0.5) < 0.07  # 3 sigma of Bernoulli(.5) over 1000 draws

    def test_rate_matches_plug_in_propensity_average(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2000, 6)) + 1.0  # shifted conditioning mean
        beta = np.full((4, 2), 0.8)
        mask = ampute(X, AmputationSpec("mar", beta=beta, seed=5))
        logits = X[:, :4] @ beta
        expected = (1.0 / (1.0 + np.exp(-logits))).mean(axis=0)
        assert np.all(np.abs(mask[:, 4:].mean(axis=0) - expected) < 0.03)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            ampute(
                np.zeros((10, 6)),
                AmputationSpec("mar", cond_cols=(0, 1, 2, 3), target_cols=(3, 4)),
            )

    @pytest.mark.parametrize("name", ["cond_cols", "target_cols"])
    def test_empty_column_list_rejected(self, name):
        # no conditioning column would delete like MCAR; no target column, nothing
        with pytest.raises(ConfigError, match=f"{name} must be non-empty"):
            ampute(np.zeros((10, 6)), AmputationSpec("mar", **{name: ()}))

    @pytest.mark.parametrize(
        "p, kwargs, message",
        [
            (2, {}, "MAR cond_cols (0, 1, 2, 3) need at least 5 columns; the table has 2"),
            (4, {}, "MAR cond_cols (0, 1, 2, 3) need at least 5 columns; the table has 4"),
            (
                5,
                {"target_cols": (5,)},
                "MAR cond_cols (0, 1, 2, 3) and target_cols (5,) need at least 6 columns; "
                "the table has 5",
            ),
        ],
        ids=["two_columns", "no_target_column", "target_out_of_range"],
    )
    def test_too_narrow_table_names_the_columns(self, p, kwargs, message):
        with pytest.raises(ConfigError) as err:
            ampute(np.zeros((10, p)), AmputationSpec("mar", **kwargs))
        assert str(err.value) == message

    def test_beta_shape_checked(self):
        with pytest.raises(Exception):
            ampute(np.zeros((10, 8)), AmputationSpec("mar", beta=np.zeros((2, 2))))

    def test_sign_pattern_recovered_by_logistic_fit(self):
        """The target-column missingness follows the conditioning columns:
        an IRLS logistic fit on (X_c -> mask) recovers the coefficient signs."""
        rng = np.random.default_rng(6)
        X = rng.normal(size=(2000, 6))
        beta = np.array([[0.9], [-0.8], [0.7], [-0.9]])
        spec = AmputationSpec("mar", beta=beta, target_cols=(5,), cond_cols=(0, 1, 2, 3), seed=8)
        mask = ampute(X, spec)
        y = mask[:, 5].astype(float)
        A = np.column_stack([np.ones(2000), X[:, :4]])
        w = np.zeros(5)
        for _ in range(20):
            eta = A @ w
            mu = 1.0 / (1.0 + np.exp(-eta))
            W = mu * (1 - mu)
            w += np.linalg.solve(A.T @ (W[:, None] * A), A.T @ (y - mu))
        assert np.all(np.sign(w[1:]) == np.sign(beta[:, 0]))

    def test_conditionally_independent_of_target_given_conditioning(self):
        """Adding the target's own values to the logistic fit should find
        no effect: missingness depends on X_c only."""
        rng = np.random.default_rng(9)
        n = 4000
        X = rng.normal(size=(n, 6))
        X[:, 5] = 0.8 * X[:, 0] + 0.6 * rng.normal(size=n)  # target correlates with X_c
        beta = np.array([[0.9], [-0.7], [0.5], [-0.6]])
        spec = AmputationSpec("mar", beta=beta, target_cols=(5,), cond_cols=(0, 1, 2, 3), seed=10)
        mask = ampute(X, spec)
        y = mask[:, 5].astype(float)
        A = np.column_stack([np.ones(n), X[:, :4], X[:, 5]])
        w = np.zeros(6)
        for _ in range(25):
            eta = A @ w
            mu = 1.0 / (1.0 + np.exp(-eta))
            W = mu * (1 - mu)
            w += np.linalg.solve(A.T @ (W[:, None] * A), A.T @ (y - mu))
        # Wald z for the target's own coefficient stays non-significant
        cov = np.linalg.inv(A.T @ ((mu * (1 - mu))[:, None] * A))
        z = w[5] / np.sqrt(cov[5, 5])
        assert abs(z) < 3.0


class TestMnar:
    def test_low_value_never_missing(self):
        X = np.full((200, 3), 0.5)
        mask = ampute(X, AmputationSpec("mnar", b0=-1.5, b1=3.0, seed=1))  # prob = 0
        assert not mask.any()

    def test_high_value_always_missing(self):
        X = np.full((200, 3), 0.9)
        # prob = 1.2 -> clamps to 1
        mask = ampute(X, AmputationSpec("mnar", b0=-1.5, b1=3.0, seed=1))
        assert mask.all()

    def test_zero_slope_reduces_to_mcar(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(2000, 10))
        mask = ampute(X, AmputationSpec("mnar", b0=0.3, b1=0.0, seed=2))
        n_cells = mask.size
        assert abs(mask.mean() - 0.3) < 3 * np.sqrt(0.3 * 0.7 / n_cells)
        # and independence from values: missing and observed cells same distribution
        _, p_value = stats.ks_2samp(X[mask], X[~mask])
        assert p_value > 0.01

    def test_self_masking_signature(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2000, 5))
        mask = ampute(X, AmputationSpec("mnar", b0=-1.5, b1=3.0, seed=3))
        assert X[mask].mean() > X[~mask].mean()  # high values go missing


class TestLayoutAndDispatch:
    def test_blockwise_contiguous_runs(self):
        X = np.zeros((100, 3))
        mask = ampute(X, AmputationSpec("mcar", rate=0.25, seed=6, layout="blockwise"))
        for j in range(3):
            rows = np.flatnonzero(mask[:, j])
            assert rows.size == 25
            assert np.array_equal(rows, np.arange(rows[0], rows[0] + 25))

    def test_blockwise_expected_count_preserved(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 4))
        elementwise = ampute(X, AmputationSpec("mnar", b0=-1.5, b1=3.0, seed=8))
        blockwise = ampute(
            X, AmputationSpec("mnar", b0=-1.5, b1=3.0, seed=8, layout="blockwise")
        )
        assert np.all(
            np.abs(blockwise.sum(axis=0) - elementwise.sum(axis=0))
            <= 0.25 * X.shape[0]
        )

    def test_masks_match_golden_digests(self):
        """Each mechanism keeps its generator path (10 MCAR, 11 MAR, 12 MNAR)
        and its draw order: the sha256 of every mask is pinned.  The
        benchmark's Monte Carlo grid redraws these masks to check its scores."""
        X = np.random.default_rng(2024).normal(size=(40, 6))
        expected = {
            ("mcar", "elementwise"): "98ddbd598e303a5e79bc8cca9a78641b84439f76ed2dbdba0725225ed4563640",
            ("mcar", "blockwise"): "5fbf8ff02eb4f46ddee47b92e1e47b8aa1d2579fdf5b51710bad5700b41c86b4",
            ("mar", "elementwise"): "aaf0c517bfe345989ce69b7a1e78091f71e9ea815bb120a724e3fce8005b9447",
            ("mar", "blockwise"): "2ade0c1c3878e9cfb096821ebf7723d0cf4aaf074e0a0d8cb6580d120cc99f8c",
            ("mnar", "elementwise"): "ae5cfc479bb633094de8a6c51e943db3a480bddf09ffd465f1b0514e390ff275",
            ("mnar", "blockwise"): "94d44febcb1aab1ebdae70580ea694b5119f04083f1a88ea2963205ff1db988e",
        }
        got = {}
        for mechanism, layout in expected:
            spec = AmputationSpec(mechanism, rate=0.3, b0=-0.5, b1=1.0, layout=layout, seed=7)
            got[mechanism, layout] = hashlib.sha256(ampute(X, spec).tobytes()).hexdigest()
        assert got == expected

    def test_labels(self):
        assert AmputationSpec("mcar", rate=0.3).label == "mcar@0.3"
        assert AmputationSpec("mnar", b0=-1.5).label == "mnar@b0=-1.5"
        assert AmputationSpec("mar").label == "mar"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AmputationSpec(mechanism="drop").validate()
        with pytest.raises(ValueError):
            AmputationSpec(mechanism="mcar", rate=2.0).validate()
        with pytest.raises(ValueError):
            AmputationSpec(layout="diagonal").validate()
