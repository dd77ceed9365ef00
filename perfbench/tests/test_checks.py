"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each checker passes a good output and rejects a deliberately corrupted
one; the Gaussian oracle agrees with least squares on a large sample; the
benchmark's scorer agrees with gcmi.rmse; the mc_grid table is identical
on one worker and on two, and mc_grid draws again exactly the masks that
run_benchmark imputes.
"""

import csv
from dataclasses import replace

import numpy as np
import pytest

import checks
import gcmi.benchmark
import workloads
from gcmi.benchmark import rmse as gcmi_rmse
from gcmi.data import ColumnSchema
from gcmi.gcin import TrainConfig
from gcmi.simulate import SyntheticSpec, ampute, gen_synthetic

TINY_TRAIN = TrainConfig(max_epochs=10, gen_iters_per_cycle=5, disc_iters_per_cycle=2, batch_size=32)


class TinyContinuous(workloads.ImputeContinuous):
    N, P = 60, 4
    CONFIG = dict(m_imputations=2, max_chain_iters=2, train=TINY_TRAIN)


class TinyMixed(workloads.CliMixed):
    N = 200
    CONFIG = {"threads": 1, "train": {"max_epochs": 10, "batch_size": 32}, "gcmi": {"max_chain_iters": 1, "m_imputations": 3}}


class TinyGrid(workloads.McGrid):
    N, P, REPEATS = 60, 5, 3
    GCMI = dict(m_imputations=2, max_chain_iters=1, train=TINY_TRAIN)


def test_completions_checker():
    inputs = np.array([[1.0, np.nan], [np.nan, 4.0]])
    mask = np.isnan(inputs)
    good = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert checks.check_completions(inputs, mask, [good]) == [[]]
    changed = good.copy()
    changed[0, 0] = np.nextafter(1.0, 2.0)
    infinite = good.copy()
    infinite[0, 1] = np.inf
    found = checks.check_completions(inputs, mask, [changed, infinite, good[:1]])
    assert ["observed cells changed" in p for p in found[0]] == [True]
    assert ["non-finite" in p for p in found[1]] == [True]
    assert found[2]


def test_draws_checker():
    mask = np.array([[True, False]])
    a = np.array([[1.0, 5.0]])
    assert checks.check_draws_differ([a, a + [[1.0, 0.0]]], mask) == []
    assert checks.check_draws_differ([a, a + [[0.0, 1.0]]], mask)


def test_accuracy_order_checker():
    assert checks.check_accuracy_order(0.1, 0.12, 0.15) == []
    assert checks.check_accuracy_order(0.1, 0.09, 0.15)
    assert checks.check_accuracy_order(0.1, 0.15, 0.15)


def test_csv_checker():
    header = ["x", "kind"]
    source = [["1.5", ""], ["", "a"]]
    levels = {1: {"a", "b"}}
    assert checks.check_csv_tokens(header, source, [["1.5", "b"], ["2.0", "a"]], levels) == []
    assert checks.check_csv_tokens(header, source, [["1.25", "b"], ["2.0", "a"]], levels)
    assert checks.check_csv_tokens(header, source, [["1.5", ""], ["2.0", "a"]], levels)
    assert checks.check_csv_tokens(header, source, [["1.5", "c"], ["2.0", "a"]], levels)
    assert checks.check_csv_tokens(header, source, [["1.5", "b"]], levels)


def test_grid_checker():
    def row(method, mech, value, n=4):
        return {"method": method, "mechanism": mech, "mean_rmse": value, "n_repeats": n}

    good = [row("gcmi", "mar", 0.1), row("mean", "mar", 0.2)]
    assert checks.check_grid(good, ["gcmi", "mean"], ["mar"], 4) == []
    assert checks.check_grid([row("gcmi", "mar", 0.3), good[1]], ["gcmi", "mean"], ["mar"], 4)
    assert checks.check_grid([row("gcmi", "mar", float("nan")), good[1]], ["gcmi", "mean"], ["mar"], 4)
    assert checks.check_grid([row("gcmi", "mar", 0.1, n=3), good[1]], ["gcmi", "mean"], ["mar"], 4)
    assert checks.check_grid(good[:1], ["gcmi", "mean"], ["mar"], 4)


def test_oracle_matches_least_squares_on_a_large_sample():
    p, rho = 5, 0.5
    alpha = np.array([0.5, -0.8, 0.3, 0.0, 0.9])
    X, Y = gen_synthetic(SyntheticSpec(n=200_000, p=p, rho=rho, alpha=tuple(alpha), seed=3))
    table = np.column_stack([X, Y])
    cov = checks.equicorrelated_cov(p, rho, 1.0, alpha, 1.0)
    for target in range(p + 1):
        others = np.delete(table, target, axis=1)
        fitted, *_ = np.linalg.lstsq(others, table[:, target], rcond=None)
        assert np.allclose(fitted, checks.regression_coef(cov, target), atol=0.02)
    # one missing cell per row: the oracle fill is that regression's prediction
    mask = np.zeros((4, p + 1), dtype=bool)
    mask[np.arange(4), [0, 2, 5, 5]] = True
    filled = checks.oracle_fill(np.where(mask, np.nan, table[:4]), mask, cov)
    for i, j in zip(*np.nonzero(mask)):
        expect = np.delete(table[i], j) @ checks.regression_coef(cov, j)
        assert filled[i, j] == pytest.approx(expect)


def test_scorer_and_pooling_agree_with_gcmi_rmse():
    rng = np.random.default_rng(0)
    truth = np.column_stack([rng.normal(size=50), rng.integers(0, 3, 50), rng.normal(size=50)])
    imputed = [truth + rng.normal(size=truth.shape) * [1, 0, 1] for _ in range(3)]
    for d in imputed:
        d[:, 1] = rng.integers(0, 3, 50)
    mask = rng.random(truth.shape) < 0.4
    coded = [False, True, False]
    schema = [ColumnSchema("a", "continuous"), ColumnSchema("b", "categorical", ("x", "y", "z")), ColumnSchema("c", "continuous")]
    pooled = checks.pool(imputed, coded)
    assert checks.scaled_rmse(truth, pooled, mask, coded) == pytest.approx(gcmi_rmse(truth, pooled, mask, schema))
    votes = np.stack([d[:, 1] for d in imputed])
    majority = [np.bincount(v.astype(int), minlength=3).argmax() for v in votes.T]
    assert np.array_equal(pooled[:, 1], majority)
    assert np.allclose(pooled[:, 0], np.mean([d[:, 0] for d in imputed], axis=0))


def test_continuous_workload_check_rejects_corruption(tmp_path):
    wl = TinyContinuous()
    wl.build(5, tmp_path)
    rnd = wl.run_round()
    assert wl.check(rnd).failed == 0
    broken = [c.copy() for c in rnd.outputs]
    broken[1][~wl.mask] += 1e-9
    assert wl.check(replace(rnd, outputs=broken)).failed == 1
    same = [rnd.outputs[0], rnd.outputs[0].copy()]
    assert "identical" in " ".join(wl.check(replace(rnd, outputs=same)).problems)


def test_mixed_workload_check_rejects_corruption(tmp_path):
    wl = TinyMixed()
    wl.build(5, tmp_path)
    rnd = wl.run_round()
    verdict = wl.check(rnd)
    assert verdict.failed == 0, verdict.problems
    path = rnd.outputs[1][2]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    missing_region = next(i for i, r in enumerate(wl.input_rows, start=1) if not r[6])
    rows[missing_region][6] = "nowhere"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    verdict = wl.check(rnd)
    assert verdict.failed == 1 and "unknown level" in " ".join(verdict.problems)


def test_grid_workload_same_table_on_one_and_two_workers(tmp_path):
    wl = TinyGrid()
    wl.build(5, tmp_path)
    two = wl.run_round()
    wl.spec = replace(wl.spec, workers=1)
    one = wl.run_round()
    assert one.outputs == two.outputs
    rows, scores = one.outputs
    assert len(rows) == 2 * len(wl.MECHANISMS)
    assert wl.check(one).failed == 0
    short = [dict(r, n_repeats=r["n_repeats"] - 1) if r["method"] == "gcmi" else r for r in rows]
    verdict = wl.check(replace(one, outputs=(short, scores)))
    assert verdict.problems and verdict.failed == len(wl.MECHANISMS) * 2
    label = wl.MECHANISMS[1].label
    shifted = dict(scores, **{f"gcmi.{label}": [v * (1 + 1e-6) for v in scores[f"gcmi.{label}"]]})
    verdict = wl.check(replace(one, outputs=(rows, shifted)))
    assert verdict.failed == wl.REPEATS * 2 and "own score" in " ".join(verdict.problems)


def test_grid_workload_redraws_the_masks_run_benchmark_imputes(tmp_path, monkeypatch):
    drawn = []

    def recording_ampute(X, spec):
        mask = ampute(X, spec)
        drawn.append(mask)
        return mask

    monkeypatch.setattr(gcmi.benchmark, "ampute", recording_ampute)
    wl = TinyGrid()
    wl.build(5, tmp_path)
    wl.spec = replace(wl.spec, workers=1)  # repeats run in order, in this process
    wl.run_round()
    again = [mask for *_, mask, _ in wl.repeats()]
    assert len(drawn) == len(again) == wl.REPEATS * len(wl.MECHANISMS)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, again))
