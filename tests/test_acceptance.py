"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Criterion 3 is the long pole (a reduced-budget Monte
Carlo ordering experiment); the rest run in seconds.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gcmi import (
    AmputationSpec,
    BenchmarkSpec,
    ColumnSchema,
    DataMatrix,
    GcmiConfig,
    MethodSpec,
    SyntheticSpec,
    TrainConfig,
    ampute,
    chi2_generator_objective,
    convergence_gamma,
    gcmi_impute,
    optimal_discriminator,
    rubin_pool,
    run_benchmark,
)
from gcmi.cli import cli_main
from gcmi.nn import backward_with_input_grads, mlp_new

from test_losses import (
    grid_minimize_pointwise_disc,
    population_generator_loss,
    random_dist_pair,
)
from test_nn import assert_grads_close, finite_difference_grads


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


class TestCriterion1OptimalDiscriminatorOracle:
    def test_grid_oracle_matches_closed_forms(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20260808)
        max_d_err = 0.0
        max_obj_err = 0.0
        for trial in range(50):
            size = int(rng.integers(2, 11))
            p, g = random_dist_pair(rng, size)
            if trial % 10 == 0:
                g = p  # include equal-distribution cases
            d_grid = grid_minimize_pointwise_disc(p, g)
            d_closed = np.array([optimal_discriminator(p, g, x) for x in p.support])
            max_d_err = max(max_d_err, float(np.max(np.abs(d_grid - d_closed))))
            induced = population_generator_loss(p, g, d_grid)
            objective = chi2_generator_objective(p, g)
            max_obj_err = max(max_obj_err, abs(induced - objective))
            if g is p:
                assert objective == 0.0
            else:
                assert objective > 0.0
        elapsed = time.perf_counter() - start
        ok = max_d_err < 1e-6 and max_obj_err < 1e-9 and elapsed < 5.0
        _report(
            1,
            ok,
            f"50 pairs: max |D_grid - D*| = {max_d_err:.2e} (tol 1e-6), "
            f"max |L_G - chi2| = {max_obj_err:.2e} (tol 1e-9), {elapsed:.2f}s < 5s",
        )


class TestCriterion2GradientCorrectness:
    def test_backprop_matches_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        checked = 0
        # 10 plain networks of varied shape and head
        for i in range(10):
            dims = (int(rng.integers(2, 5)), [int(rng.integers(3, 7))], int(rng.integers(1, 3)))
            activation = ("identity", "sigmoid", "scaled_sigmoid_0_2")[i % 3]
            mlp = mlp_new(dims[0], dims[1], dims[2], activation, seed=i)
            x = rng.normal(size=(4, dims[0]))
            grad_out = rng.normal(size=(4, dims[2]))
            grads, _ = backward_with_input_grads(mlp, x, grad_out)
            assert_grads_close(grads, finite_difference_grads(mlp, x, grad_out))
            checked += 1
        # 10 composed discriminator-of-generator graphs
        from test_gcin import TestComposedGradients, gen_grads

        objective = TestComposedGradients._gen_objective
        for i in range(10):
            kind = "continuous" if i % 2 == 0 else "binary"
            w, k = int(rng.integers(2, 4)), int(rng.integers(1, 3))
            head = "identity" if kind == "continuous" else "sigmoid"
            gen = mlp_new(w + k, [4], 1, head, seed=100 + i)
            disc = mlp_new(w + 1, [3], 1, "scaled_sigmoid_0_2", seed=200 + i)
            cond = rng.normal(size=(5, w))
            z = rng.normal(size=(5, k))
            target = (
                rng.normal(size=(5, 1))
                if kind == "continuous"
                else rng.integers(0, 2, size=(5, 1)).astype(float)
            )
            _, _, grads = gen_grads(gen, disc, cond, target, z, 1.0, kind)
            h = 1e-6
            for li, w_arr in enumerate(gen.weights):
                it = np.nditer(w_arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = w_arr[idx]
                    w_arr[idx] = orig + h
                    up = objective(gen, disc, cond, target, z, 1.0, kind)
                    w_arr[idx] = orig - h
                    down = objective(gen, disc, cond, target, z, 1.0, kind)
                    w_arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    analytic = grads.d_weights[li][idx]
                    denom = max(abs(fd), abs(analytic), 1e-3)
                    assert abs(fd - analytic) / denom < 1e-4
            checked += 1
        elapsed = time.perf_counter() - start
        ok = checked == 20 and elapsed < 30.0
        _report(
            2,
            ok,
            f"{checked} networks (plain + composed) match central differences "
            f"at 1e-4 relative, {elapsed:.1f}s < 30s",
        )


class TestCriterion3SyntheticMethodOrdering:
    def test_gcmi_beats_mean_imputation_at_every_rate(self):
        start = time.perf_counter()
        rates = (0.1, 0.3, 0.5)
        spec = BenchmarkSpec(
            data=SyntheticSpec(n=500, p=10, rho=0.3),
            mechanisms=[AmputationSpec("mcar", rate=r) for r in rates],
            methods=[MethodSpec("gcmi"), MethodSpec("mean")],
            mc_repeats=20,
            seed=2026,
            # desk-scale run: reduced training budget, pooled short chains
            gcmi=GcmiConfig(
                m_imputations=4, max_chain_iters=1, train=TrainConfig(max_epochs=500)
            ),
            workers=2,
        )
        table = run_benchmark(spec)
        by = {(row.method, row.mechanism): row.mean_rmse for row in table.rows}
        gcmi_curve = [by[("gcmi", f"mcar@{r:g}")] for r in rates]
        mean_curve = [by[("mean", f"mcar@{r:g}")] for r in rates]
        elapsed = time.perf_counter() - start
        beats = all(g < m for g, m in zip(gcmi_curve, mean_curve))
        monotone = all(a <= b + 1e-12 for a, b in zip(gcmi_curve, gcmi_curve[1:]))
        detail = ", ".join(
            f"rate {r}: gcmi {g:.4f} vs mean {m:.4f}"
            for r, g, m in zip(rates, gcmi_curve, mean_curve)
        )
        ok = beats and monotone and elapsed < 1800.0
        _report(3, ok, f"{detail}; gcmi curve non-decreasing={monotone}; {elapsed:.0f}s < 1800s")


class TestCriterion4MeanImputationFlatness:
    def test_mean_rmse_flat_across_rates(self):
        rates = (0.1, 0.2, 0.3, 0.4, 0.5)
        spec = BenchmarkSpec(
            data=SyntheticSpec(n=2000, p=15, rho=0.3),
            mechanisms=[AmputationSpec("mcar", rate=r) for r in rates],
            methods=[MethodSpec("mean")],
            mc_repeats=10,
            seed=7,
        )
        table = run_benchmark(spec)
        means = np.array([row.mean_rmse for row in table.rows])
        spread = (means.max() - means.min()) / means.mean()
        ok = spread < 0.05
        _report(
            4,
            ok,
            f"mean-imputation RMSE across rates {np.round(means, 4).tolist()}, "
            f"relative spread {spread:.3%} < 5%",
        )


class TestCriterion5AmputationStatistics:
    def test_mechanism_statistics(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2000, 15))

        # MCAR empirical rate inside the 3-sigma binomial envelope
        mcar_ok = []
        for rate in (0.1, 0.3, 0.5):
            mask = ampute(X, AmputationSpec("mcar", rate=rate, seed=int(rate * 100)))
            bound = 3 * np.sqrt(rate * (1 - rate) / mask.size)
            mcar_ok.append(abs(mask.mean() - rate) < bound)

        # MAR with beta = 0: target-column rate 0.5 +/- 0.02
        mar_mask = ampute(X, AmputationSpec("mar", beta=np.zeros((4, 11)), seed=3))
        mar_rate = mar_mask[:, 4:].mean()
        mar_ok = abs(mar_rate - 0.5) < 0.02

        # MNAR with b1 = 0 vs MCAR at the same rate: two-sided proportion test
        mnar_mask = ampute(X, AmputationSpec("mnar", b0=0.3, b1=0.0, seed=4))
        mcar_mask = ampute(X, AmputationSpec("mcar", rate=0.3, seed=5))
        n = X.size
        p1, p2 = mnar_mask.mean(), mcar_mask.mean()
        pooled = (mnar_mask.sum() + mcar_mask.sum()) / (2 * n)
        z = (p1 - p2) / np.sqrt(pooled * (1 - pooled) * (2 / n))
        p_value = 2 * stats.norm.sf(abs(z))
        mnar_ok = p_value > 0.01

        ok = all(mcar_ok) and mar_ok and mnar_ok
        _report(
            5,
            ok,
            f"MCAR rates in 3-sigma bounds={all(mcar_ok)}; MAR(beta=0) rate "
            f"{mar_rate:.3f} in 0.5±0.02; MNAR(b1=0) vs MCAR proportion test p={p_value:.3f} > 0.01",
        )


class TestCriterion6RubinRules:
    def test_exact_hand_example(self):
        pooled = rubin_pool([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
        ok = (
            pooled.point == 2.0
            and pooled.within_var == 1.0
            and pooled.between_var == 1.0
            and pooled.total_var == 7.0 / 3.0
        )
        _report(
            6,
            ok,
            f"point={pooled.point}, within={pooled.within_var}, "
            f"between={pooled.between_var}, total={pooled.total_var} == 7/3",
        )


class TestCriterion7ChainedLoopContracts:
    @staticmethod
    def _random_matrix(rng):
        n = int(rng.integers(20, 37))
        p = int(rng.integers(2, 5))
        kinds = [str(rng.choice(["continuous", "continuous", "binary", "categorical"]))
                 for _ in range(p)]
        columns = []
        schema = []
        for j, kind in enumerate(kinds):
            if kind == "continuous":
                columns.append(rng.normal(size=n))
                schema.append(ColumnSchema(f"c{j}", "continuous"))
            elif kind == "binary":
                columns.append(rng.integers(0, 2, size=n).astype(float))
                schema.append(ColumnSchema(f"b{j}", "binary", ("no", "yes")))
            else:
                columns.append(rng.integers(0, 3, size=n).astype(float))
                schema.append(ColumnSchema(f"k{j}", "categorical", ("x", "y", "z")))
        values = np.column_stack(columns)
        mask = rng.random((n, p)) < rng.uniform(0.0, 0.5)
        mask[rng.integers(0, n)] = False  # keep every column partly observed
        return DataMatrix(schema, np.where(mask, np.nan, values)), values

    def test_contracts_on_100_random_inputs(self):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        cfg = GcmiConfig(
            m_imputations=1,
            max_chain_iters=2,
            train=TrainConfig(
                max_epochs=20,
                gen_iters_per_cycle=10,
                disc_iters_per_cycle=2,
                batch_size=32,
                noise_dim=2,
            ),
        )
        failures = []
        for trial in range(100):
            dm, truth = self._random_matrix(rng)
            run_cfg = replace(cfg, seed=trial)
            result = gcmi_impute(dm, run_cfg)
            completed = result.completed[0]
            if len(result.traces[0]) > cfg.max_chain_iters:
                failures.append((trial, "termination"))
            if np.isnan(completed.values).any() or completed.mask.any():
                failures.append((trial, "completeness"))
            if not np.array_equal(completed.values[~dm.mask], truth[~dm.mask]):
                failures.append((trial, "observed-cell preservation"))
            if trial % 20 == 0:
                again = gcmi_impute(dm, run_cfg)
                if completed.values.tobytes() != again.completed[0].values.tobytes():
                    failures.append((trial, "determinism"))
        elapsed = time.perf_counter() - start
        _report(
            7,
            not failures,
            f"100 random inputs: termination/completeness/preservation hold, "
            f"byte-identical reruns on 5 spot checks; {elapsed:.0f}s "
            + (f"violations: {failures[:3]}" if failures else ""),
        )


class TestCriterion8ConvergenceArithmetic:
    def test_hand_computed_gammas(self):
        num_schema = [ColumnSchema("a", "continuous")]
        num_mask = np.array([[True], [True], [False]])
        g_num, _ = convergence_gamma(
            np.array([[2.0], [2.0], [9.0]]),
            np.array([[1.0], [1.0], [9.0]]),
            num_mask,
            num_schema,
        )
        cat_schema = [ColumnSchema("c", "categorical", ("a", "b", "z"))]
        cat_mask = np.array([[True], [True], [True], [False]])
        _, g_cat = convergence_gamma(
            np.array([[0.0], [1.0], [0.0], [2.0]]),
            np.array([[0.0], [1.0], [2.0], [2.0]]),
            cat_mask,
            cat_schema,
        )
        zero = convergence_gamma(
            np.array([[1.0]]), np.array([[1.0]]), np.array([[True]]), num_schema
        )
        ok = g_num == 0.25 and g_cat == pytest.approx(1.0 / 3.0) and zero == (0.0, 0.0)
        _report(
            8,
            ok,
            f"gamma_num 2/8 = {g_num}, gamma_cat 1/3 = {g_cat:.6f}, identical matrices -> (0, 0)",
        )


class TestCriterion9CliRoundTrip:
    def test_pipeline_reproduces_itself(self, tmp_path):
        config = {
            "seed": 11,
            "threads": 1,
            "train": {
                "max_epochs": 20,
                "gen_iters_per_cycle": 10,
                "disc_iters_per_cycle": 2,
                "batch_size": 32,
                "noise_dim": 2,
            },
            "gcmi": {"max_chain_iters": 1, "m_imputations": 2},
            "simulate": {"n": 40, "p": 4, "rho": 0.3},
            "ampute": {"input": "synthetic.csv", "mechanism": "mcar", "rate": 0.3},
            "impute": {"input": "amputed_values.csv"},
            "benchmark": {
                "synthetic": {"n": 30, "p": 3},
                "mechanisms": [{"mechanism": "mcar", "rate": 0.3}],
                "methods": [{"kind": "mean"}],
                "mc_repeats": 2,
            },
        }
        cfg_path = tmp_path / "pipeline.json"
        cfg_path.write_text(json.dumps(config))

        def run_pipeline(out_dir):
            for command in ("simulate", "ampute", "impute", "benchmark"):
                code = cli_main(
                    ["--config", str(cfg_path), "--output-dir", str(out_dir), command]
                )
                assert code == 0, f"{command} exited {code}"

        run_pipeline(tmp_path / "run1")
        run_pipeline(tmp_path / "run2")

        expected = [
            "synthetic.csv",
            "amputed_values.csv",
            "amputed_mask.csv",
            "imputed_imp1.csv",
            "imputed_imp2.csv",
            "benchmark.csv",
            "benchmark.json",
        ]
        mismatched = []
        for name in expected:
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            if a != b:
                mismatched.append(name)
        # the manifest embeds wall time, which is run metadata, not output
        manifests = []
        for run in ("run1", "run2"):
            manifest = json.loads((tmp_path / run / "imputed_manifest.json").read_text())
            manifest.pop("wall_time_s")
            manifests.append(manifest)
        if manifests[0] != manifests[1]:
            mismatched.append("imputed_manifest.json")
        _report(
            9,
            not mismatched,
            "simulate -> ampute -> impute -> benchmark from one config; "
            f"{len(expected) + 1} outputs byte-identical across reruns"
            + (f" EXCEPT {mismatched}" if mismatched else ""),
        )
