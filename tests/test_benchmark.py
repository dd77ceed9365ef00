"""Baseline imputation, masked-cell RMSE, and the Monte Carlo harness."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from gcmi import (
    AmputationSpec,
    BenchmarkSpec,
    ColumnSchema,
    DataError,
    DataMatrix,
    GcmiConfig,
    MethodSpec,
    SyntheticSpec,
    TrainConfig,
    initial_fill,
    matrix_from_array,
    read_csv,
    rmse,
    run_benchmark,
    write_csv,
)
from gcmi.cli import cli_main
from gcmi.seeding import derive_seed
from gcmi.simulate import ampute

TINY_GCMI = GcmiConfig(
    m_imputations=1,
    max_chain_iters=1,
    train=TrainConfig(
        max_epochs=20, gen_iters_per_cycle=10, disc_iters_per_cycle=2, batch_size=32, noise_dim=2
    ),
)


def tiny_spec(**kw):
    base = dict(
        data=SyntheticSpec(n=60, p=4, rho=0.3),
        mechanisms=[AmputationSpec("mcar", rate=0.3)],
        methods=[MethodSpec("mean")],
        mc_repeats=3,
        seed=0,
        gcmi=TINY_GCMI,
    )
    base.update(kw)
    return BenchmarkSpec(**base)


class TestMeanImpute:
    def test_hand_value(self):
        dm = matrix_from_array(
            np.array([[2.0], [np.nan], [4.0]]), mask=np.array([[False], [True], [False]])
        )
        assert initial_fill(dm).values[1, 0] == 3.0

    def test_constant_column(self):
        dm = matrix_from_array(
            np.array([[5.0], [np.nan]]), mask=np.array([[False], [True]])
        )
        assert initial_fill(dm).values[1, 0] == 5.0


class TestPoolCompleted:
    def test_cell_means_and_majority_levels(self):
        from types import SimpleNamespace

        from gcmi.benchmark import _pool_completed

        schema = [
            ColumnSchema("x", "continuous"),
            ColumnSchema("b", "binary", ("no", "yes")),
            ColumnSchema("c", "categorical", ("p", "q", "r")),
        ]
        # per row: the M = 4 completions' values of x, b and c
        cells = [
            ([1.0, 2.0, 3.0, 6.0], [1, 1, 0, 1], [2, 2, 1, 0]),
            ([0.0, 0.0, 0.0, 0.5], [1, 1, 0, 0], [0, 1, 1, 0]),  # 2-2 ties
            ([-1.0, 1.0, -1.0, 1.0], [0, 1, 0, 1], [2, 1, 2, 1]),  # 2-2 ties
            ([4.0, 4.0, 4.0, 4.0], [1, 1, 1, 1], [1, 1, 1, 1]),
            ([2.0, 0.0, 0.0, 0.0], [0, 0, 0, 1], [0, 2, 1, 2]),
        ]
        stack = np.array(cells, dtype=float).transpose(2, 0, 1)  # (M, n, p)
        result = SimpleNamespace(completed=[DataMatrix(schema, values) for values in stack])
        pooled = _pool_completed(result)
        # ties go to the smallest code, as initial_fill's mode does
        expected = [[3.0, 1, 2], [0.125, 0, 0], [0.0, 0, 1], [4.0, 1, 1], [0.5, 0, 2]]
        assert pooled.tolist() == expected


class TestRmse:
    def test_perfect_imputation_zero(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        mask = np.zeros_like(X, dtype=bool)
        mask[0, 0] = True
        assert rmse(X, X.copy(), mask) == 0.0

    def test_single_cell_hand_value(self):
        # constant-one truth column has no spread, so the scale stays 1
        X_true = np.ones((3, 1))
        X_imp = X_true.copy()
        X_imp[1, 0] = 3.0
        mask = np.array([[False], [True], [False]])
        assert rmse(X_true, X_imp, mask) == pytest.approx(2.0)

    def test_two_cell_hand_value(self):
        X_true = np.zeros((2, 1))
        X_imp = np.array([[3.0], [4.0]])
        mask = np.ones((2, 1), dtype=bool)
        assert rmse(X_true, X_imp, mask) == pytest.approx(np.sqrt(25.0 / 2.0))

    def test_empty_mask_rejected(self):
        X = np.ones((3, 2))
        with pytest.raises(ValueError):
            rmse(X, X, np.zeros_like(X, dtype=bool))

    def test_normalized_scale_uses_truth_range(self):
        X_true = np.array([[0.0], [10.0], [5.0]])
        X_imp = np.array([[0.0], [10.0], [7.0]])
        mask = np.array([[False], [False], [True]])
        assert rmse(X_true, X_imp, mask, normalized=True) == pytest.approx(0.2)
        assert rmse(X_true, X_imp, mask, normalized=False) == pytest.approx(2.0)

    def test_error_scaling_linear_on_raw_scale(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 2))
        mask = rng.random((20, 2)) < 0.4
        mask[0, 0] = True
        err = rng.normal(size=(20, 2))
        a = rmse(X, X + mask * err, mask, normalized=False)
        b = rmse(X, X + mask * (3 * err), mask, normalized=False)
        assert b == pytest.approx(3 * a)

    def test_cell_order_symmetric(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 2))
        imp = X + rng.normal(size=(10, 2))
        mask = np.ones_like(X, dtype=bool)
        perm = rng.permutation(10)
        assert rmse(X, imp, mask) == pytest.approx(rmse(X[perm], imp[perm], mask[perm]))

    def test_categorical_cells_score_disagreement(self):
        schema = [ColumnSchema("c", "categorical", ("a", "b", "z"))]
        X_true = np.array([[0.0], [1.0], [2.0], [1.0]])
        X_imp = np.array([[0.0], [2.0], [2.0], [0.0]])
        mask = np.ones((4, 1), dtype=bool)
        assert rmse(X_true, X_imp, mask, schema=schema) == pytest.approx(np.sqrt(0.5))


class TestRunBenchmark:
    def test_deterministic_rerun(self):
        a = run_benchmark(tiny_spec())
        b = run_benchmark(tiny_spec())
        assert [(r.method, r.mechanism, r.mean_rmse) for r in a.rows] == [
            (r.method, r.mechanism, r.mean_rmse) for r in b.rows
        ]

    def test_mean_row_flat_across_rates(self):
        spec = tiny_spec(
            data=SyntheticSpec(n=400, p=5, rho=0.3),
            mechanisms=[AmputationSpec("mcar", rate=r) for r in (0.1, 0.3, 0.5)],
            mc_repeats=5,
        )
        table = run_benchmark(spec)
        means = [row.mean_rmse for row in table.rows if row.method == "mean"]
        assert max(means) - min(means) < 0.15 * np.mean(means)

    def test_rate_is_realised_deleted_share(self, monkeypatch):
        import gcmi.benchmark

        drawn = {}
        real_ampute = gcmi.benchmark.ampute

        def recording_ampute(values, spec):
            mask = real_ampute(values, spec)
            drawn.setdefault(spec.label, []).append(float(mask.mean()))
            return mask

        monkeypatch.setattr(gcmi.benchmark, "ampute", recording_ampute)
        spec = tiny_spec(
            data=SyntheticSpec(n=200, p=5, rho=0.3),
            mechanisms=[AmputationSpec("mar"), AmputationSpec("mnar")],
            mc_repeats=3,
        )
        table = run_benchmark(spec)
        assert len(table.rows) == 2
        for row in table.rows:
            assert 0.0 < row.rate < 1.0
            assert len(drawn[row.mechanism]) == 3
            assert row.rate == float(np.mean(drawn[row.mechanism]))

    def test_se_matches_two_pass_computation(self):
        spec = tiny_spec(mc_repeats=6)
        table = run_benchmark(spec)
        row = table.rows[0]
        values = np.array(table.raw[(row.method, row.mechanism)])
        mean = values.sum() / len(values)
        var = ((values - mean) ** 2).sum() / (len(values) - 1)
        assert row.sd_rmse == pytest.approx(np.sqrt(var))
        assert row.se_rmse == pytest.approx(np.sqrt(var / len(values)))

    def test_workers_do_not_change_results(self):
        serial = run_benchmark(tiny_spec(workers=1))
        parallel = run_benchmark(tiny_spec(workers=2))
        assert [r.mean_rmse for r in serial.rows] == [r.mean_rmse for r in parallel.rows]

    def test_gcmi_method_runs(self):
        spec = tiny_spec(methods=[MethodSpec("gcmi"), MethodSpec("mean")], mc_repeats=2)
        table = run_benchmark(spec)
        methods = {row.method for row in table.rows}
        assert methods == {"gcmi", "mean"}
        assert all(np.isfinite(row.mean_rmse) for row in table.rows)

    def test_csv_and_json_output(self, tmp_path):
        table = run_benchmark(tiny_spec())
        table.to_csv(tmp_path / "t.csv")
        table.to_json(tmp_path / "t.json")
        table.dump_raw_csv(tmp_path / "raw.csv")
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert header == "method,mechanism,rate,mean_rmse,sd_rmse,se_rmse,n_repeats"
        import json

        rows = json.loads((tmp_path / "t.json").read_text())
        assert rows[0]["method"] == "mean"
        raw_lines = (tmp_path / "raw.csv").read_text().strip().splitlines()
        assert len(raw_lines) == 1 + 3  # header + mc_repeats

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(mc_repeats=0).validate()
        with pytest.raises(ValueError):
            tiny_spec(methods=[]).validate()
        with pytest.raises(ValueError):
            MethodSpec("external")  # needs a path


class TestExternalMethod:
    def _write_external(self, tmp_path, spec, transform):
        """Materialise per-repeat results as an external method would."""
        from gcmi.benchmark import _load_truth
        from gcmi.simulate import ampute
        from dataclasses import replace
        from gcmi.seeding import spawn_rng

        ext_dir = tmp_path / "ext"
        ext_dir.mkdir()
        for r in range(spec.mc_repeats):
            truth = _load_truth(spec, r)
            for i, mech in enumerate(spec.mechanisms):
                mech_seed = int(spawn_rng(spec.seed, 200, r, i).integers(0, 2**63))
                mask = ampute(truth.values, replace(mech, seed=mech_seed))
                completed = transform(truth.values, mask)
                dm = matrix_from_array(completed)
                write_csv(dm, ext_dir / f"{mech.label}_rep{r:03d}.csv")
        return ext_dir

    def test_external_results_scored_identically_to_builtin(self, tmp_path):
        spec = tiny_spec(mc_repeats=2)

        def mean_transform(values, mask):
            dm = matrix_from_array(values, mask)
            return initial_fill(dm).values

        ext_dir = self._write_external(tmp_path, spec, mean_transform)
        spec = tiny_spec(
            mc_repeats=2,
            methods=[MethodSpec("mean"), MethodSpec("external", "copycat", str(ext_dir))],
        )
        table = run_benchmark(spec)
        by_method = {row.method: row.mean_rmse for row in table.rows}
        assert by_method["copycat"] == pytest.approx(by_method["mean"])

    def test_missing_repeat_file_names_repeat(self, tmp_path):
        spec = tiny_spec(
            methods=[MethodSpec("external", "ghost", str(tmp_path))], mc_repeats=1
        )
        with pytest.raises(DataError, match="repeat 0"):
            run_benchmark(spec)

    def test_incomplete_external_file_rejected(self, tmp_path):
        spec = tiny_spec(mc_repeats=1)

        def leave_missing(values, mask):
            out = values.copy()
            out[mask] = np.nan
            return out

        from gcmi.benchmark import _load_truth

        truth = _load_truth(spec, 0)
        ext_dir = tmp_path / "bad"
        ext_dir.mkdir()
        incomplete = truth.copy()
        incomplete.values[0, 0] = np.nan
        incomplete.mask[0, 0] = True
        write_csv(incomplete, ext_dir / "mcar@0.3_rep000.csv")
        spec = tiny_spec(
            mc_repeats=1, methods=[MethodSpec("external", "bad", str(ext_dir))]
        )
        with pytest.raises(DataError, match="missing cells"):
            run_benchmark(spec)


def mixed_truth_csv(path, n=60, seed=0):
    """A complete table of three continuous columns and a categorical one
    with levels a/b/c, written to ``path``; returns the table read back."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    c = np.digitize(x[:, 0] + rng.normal(size=n), [-0.5, 0.5]).astype(float)
    schema = [ColumnSchema(f"x{i}", "continuous") for i in range(3)]
    schema.append(ColumnSchema("c", "categorical", ("a", "b", "c")))
    write_csv(DataMatrix(schema, np.column_stack([x, c])), path)
    return read_csv(path)


def repeat_mask(spec, truth, repeat, i):
    """The mask ``run_benchmark`` draws for mechanism ``i`` of a repeat."""
    mech = spec.mechanisms[i]
    return ampute(truth.values, replace(mech, seed=derive_seed(spec.seed, 200, repeat, i)))


class TestCsvTruth:
    def test_table_read_once_per_run(self, tmp_path, monkeypatch):
        import gcmi.benchmark

        path = tmp_path / "truth.csv"
        mixed_truth_csv(path)
        reads = []
        read = gcmi.benchmark.read_csv

        def counting(*args, **kwargs):
            reads.append(args[0])
            return read(*args, **kwargs)

        monkeypatch.setattr(gcmi.benchmark, "read_csv", counting)
        mechanisms = [AmputationSpec("mcar", rate=0.2), AmputationSpec("mcar", rate=0.4)]
        table = run_benchmark(tiny_spec(data=str(path), mechanisms=mechanisms, mc_repeats=3))
        assert reads == [str(path)]
        assert [row.n_repeats for row in table.rows] == [3, 3]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_incomplete_table_exits_2_with_one_line(self, tmp_path, capsys, seed):
        path = tmp_path / "truth.csv"
        path.write_text("a,b,c\n1,2,3\n4,,6\n7,8,9\n1,5,2\n3,1,4\n")
        config = {
            "seed": seed,
            "benchmark": {
                "data": str(path),
                "mechanisms": [{"mechanism": "mcar", "rate": 0.3}],
                "methods": [{"kind": "mean"}],
                "mc_repeats": 2,
            },
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = cli_main(["--config", str(cfg_path), "--output-dir", str(out), "benchmark"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"data error: {path}: benchmark data must be complete\n"
        assert not (out / "benchmark.csv").exists()


class TestExternalScoring:
    def _spec(self, tmp_path, ext_dir):
        truth_path = tmp_path / "truth.csv"
        truth = mixed_truth_csv(truth_path)
        spec = tiny_spec(
            data=str(truth_path),
            mc_repeats=1,
            methods=[MethodSpec("external", "ext", str(ext_dir))],
        )
        return spec, truth

    def test_coded_levels_scored_on_the_truths_codes(self, tmp_path):
        # every "a" of the categorical column rewritten to "b": the file's
        # column has levels b/c, which must score as the truth's codes 1/2
        ext_dir = tmp_path / "ext"
        ext_dir.mkdir()
        spec, truth = self._spec(tmp_path, ext_dir)
        mask = repeat_mask(spec, truth, 0, 0)
        amputed = DataMatrix(truth.schema, np.where(mask, np.nan, truth.values))
        completed = initial_fill(amputed).values
        completed[completed[:, 3] == 0, 3] = 1
        ext = DataMatrix(truth.schema, completed)
        write_csv(ext, ext_dir / "mcar@0.3_rep000.csv")
        assert read_csv(ext_dir / "mcar@0.3_rep000.csv").schema[3].levels == ("b", "c")
        (row,) = run_benchmark(spec).rows
        assert row.mean_rmse == rmse(truth.values, completed, mask, schema=truth.schema)

    def test_coded_column_holding_one_level_scored(self, tmp_path):
        # a mask that deletes both "yes" cells of b: its mean/mode fill
        # writes every cell of b as "no", one of the truth's two levels
        n = 40
        b = np.zeros(n)
        b[[3, 17]] = 1.0
        schema = [ColumnSchema("x", "continuous"), ColumnSchema("b", "binary", ("no", "yes"))]
        truth_path = tmp_path / "truth.csv"
        x = np.random.default_rng(0).normal(size=n)
        write_csv(DataMatrix(schema, np.column_stack([x, b])), truth_path)
        truth = read_csv(truth_path)
        ext_dir = tmp_path / "ext"
        ext_dir.mkdir()
        methods = [MethodSpec("mean"), MethodSpec("external", "ext", str(ext_dir))]
        mcar = AmputationSpec("mcar", rate=0.5)
        for seed in range(200):
            spec = tiny_spec(
                data=str(truth_path), mechanisms=[mcar], methods=methods, mc_repeats=1, seed=seed
            )
            mask = repeat_mask(spec, truth, 0, 0)
            if mask[b == 1, 1].all() and not mask[:, 0].all():
                break
        else:
            pytest.fail("no seed deletes both 'yes' cells")
        fill = initial_fill(DataMatrix(schema, np.where(mask, np.nan, truth.values)))
        write_csv(fill, ext_dir / f"{mcar.label}_rep000.csv")
        mean_row, ext_row = run_benchmark(spec).rows
        assert (mean_row.method, ext_row.method) == ("mean", "ext")
        assert ext_row.mean_rmse == mean_row.mean_rmse

    @pytest.mark.parametrize(
        "edit,message",
        [
            # the truth's columns in another order
            (lambda text: [",".join(line.split(",")[::-1]) for line in text],
             r"line 1, column 1: header \['c', 'x2', 'x1', 'x0'\], expected \['x0', 'x1', 'x2', 'c'\]"),
            # a level the truth lacks
            (lambda text: [text[0], *(line.replace(",b", ",z") for line in text[1:])],
             r"line \d+, column 'c': 'z' is not one of the levels \['a', 'b', 'c'\]"),
            # a continuous column where the truth's is coded
            (lambda text: [text[0], *(line[:-1] + str("abc".index(line[-1])) for line in text[1:])],
             r"line 2, column 'c': '\d' is not one of the levels \['a', 'b', 'c'\]"),
        ],
        ids=["column_order", "unknown_level", "kind"],
    )
    def test_file_off_the_truths_columns_rejected(self, tmp_path, edit, message):
        ext_dir = tmp_path / "ext"
        ext_dir.mkdir()
        spec, truth = self._spec(tmp_path, ext_dir)
        text = (tmp_path / "truth.csv").read_text().splitlines()
        path = ext_dir / "mcar@0.3_rep000.csv"
        path.write_text("\n".join(edit(text)) + "\n")
        prefix = re.escape(f"external method 'ext': repeat 0: {path}: ")
        with pytest.raises(DataError, match=prefix + message):
            run_benchmark(spec)
