"""Chained multiple imputation: fill/order/convergence arithmetic, sweep
mechanics, end-to-end contracts on small matrices, and pooling rules."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmi import (
    ColumnSchema,
    DataMatrix,
    GcmiConfig,
    InsufficientDataError,
    TrainConfig,
    UnimputableColumnError,
    convergence_gamma,
    gcmi_impute,
    initial_fill,
    matrix_from_array,
    order_columns,
    rubin_pool,
    save_result,
)
import gcmi.chained
from gcmi.chained import MIN_ROWS_FOR_TRAINING, sweep, _trainable_columns
from gcmi.data import encode_columns

TINY_TRAIN = TrainConfig(
    max_epochs=30, gen_iters_per_cycle=10, disc_iters_per_cycle=2, batch_size=32, noise_dim=2
)


def tiny_config(**kw):
    base = dict(m_imputations=1, max_chain_iters=3, train=TINY_TRAIN, seed=0)
    base.update(kw)
    return GcmiConfig(**base)


def mixed_matrix(n=40, seed=0, miss=0.25):
    """Continuous + binary + categorical columns with random missingness."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = x1 + 0.5 * rng.normal(size=n)
    b = (x1 > 0).astype(float)
    c = rng.integers(0, 3, size=n).astype(float)
    values = np.column_stack([x1, x2, b, c])
    mask = rng.random((n, 4)) < miss
    mask[0] = False  # keep at least one fully observed row
    schema = [
        ColumnSchema("x1", "continuous"),
        ColumnSchema("x2", "continuous"),
        ColumnSchema("b", "binary", ("lo", "hi")),
        ColumnSchema("c", "categorical", ("a", "b", "c")),
    ]
    return DataMatrix(schema, np.where(mask, np.nan, values)), values


class TestInitialFill:
    def test_continuous_mean(self):
        dm = matrix_from_array(
            np.array([[1.0], [2.0], [3.0]]), mask=np.array([[False], [True], [False]])
        )
        dm.values[1, 0] = np.nan
        filled = initial_fill(dm)
        assert filled.values[1, 0] == 2.0

    def test_categorical_mode(self):
        schema = [ColumnSchema("c", "categorical", ("a", "b", "z"))]
        values = np.array([[0.0], [0.0], [np.nan]])
        filled = initial_fill(DataMatrix(schema, values))
        assert filled.values[2, 0] == 0.0

    def test_mode_tie_breaks_to_smallest_code(self):
        schema = [ColumnSchema("c", "categorical", ("a", "b", "z"))]
        values = np.array([[2.0], [1.0], [2.0], [1.0], [np.nan]])
        filled = initial_fill(DataMatrix(schema, values))
        assert filled.values[4, 0] == 1.0

    def test_complete_matrix_unchanged(self):
        dm = matrix_from_array(np.arange(6.0).reshape(3, 2))
        filled = initial_fill(dm)
        assert np.array_equal(filled.values, dm.values)

    def test_fully_missing_column_named(self):
        dm = matrix_from_array(np.ones((3, 2)), mask=np.array([[False, True]] * 3))
        with pytest.raises(UnimputableColumnError, match="X2"):
            initial_fill(dm)

    def test_observed_cells_untouched(self):
        dm, truth = mixed_matrix(seed=3)
        filled = initial_fill(dm)
        assert np.array_equal(filled.values[~dm.mask], truth[~dm.mask])


class TestOrderColumns:
    def test_ascending_missing_fraction(self):
        mask = np.zeros((10, 3), dtype=bool)
        mask[:5, 0] = True  # 0.5
        mask[:1, 1] = True  # 0.1
        mask[:3, 2] = True  # 0.3
        dm = matrix_from_array(np.ones((10, 3)), mask=mask)
        assert order_columns(dm).tolist() == [1, 2, 0]

    def test_ties_keep_original_order(self):
        dm = matrix_from_array(np.ones((4, 3)))
        assert order_columns(dm).tolist() == [0, 1, 2]

    def test_fully_observed_no_training_scheduled(self):
        dm = matrix_from_array(np.random.default_rng(0).normal(size=(20, 3)))
        assert order_columns(dm).tolist() == [0, 1, 2]
        assert _trainable_columns(dm) == []


class TestConvergenceGamma:
    def test_identical_matrices(self):
        dm, _ = mixed_matrix()
        filled = initial_fill(dm).values
        assert convergence_gamma(filled, filled, dm.mask, dm.schema) == (0.0, 0.0)

    def test_numeric_hand_value(self):
        # two missing numeric cells: new (2,2), old (1,1) -> 2/8
        schema = [ColumnSchema("a", "continuous")]
        mask = np.array([[True], [True], [False]])
        new = np.array([[2.0], [2.0], [5.0]])
        old = np.array([[1.0], [1.0], [5.0]])
        g_num, g_cat = convergence_gamma(new, old, mask, schema)
        assert g_num == pytest.approx(0.25)
        assert g_cat == 0.0

    def test_categorical_hand_value(self):
        # three missing categorical cells, one changed -> 1/3
        schema = [ColumnSchema("c", "categorical", ("a", "b", "z"))]
        mask = np.array([[True], [True], [True], [False]])
        old = np.array([[0.0], [1.0], [2.0], [0.0]])
        new = np.array([[0.0], [1.0], [0.0], [0.0]])
        g_num, g_cat = convergence_gamma(new, old, mask, schema)
        assert g_num == 0.0
        assert g_cat == pytest.approx(1.0 / 3.0)

    def test_observed_cells_excluded(self):
        schema = [ColumnSchema("a", "continuous")]
        mask = np.array([[False], [True]])
        new = np.array([[99.0], [2.0]])
        old = np.array([[0.0], [2.0]])
        assert convergence_gamma(new, old, mask, schema) == (0.0, 0.0)

    def test_zero_over_zero_is_zero(self):
        schema = [ColumnSchema("a", "continuous")]
        mask = np.array([[True]])
        zero = np.array([[0.0]])
        assert convergence_gamma(zero, zero, mask, schema) == (0.0, 0.0)


class TestSweep:
    def test_no_missing_returns_input(self):
        dm = matrix_from_array(np.random.default_rng(1).normal(size=(30, 3)))
        (out,), _ = sweep(dm.values[None], dm, _trainable_columns(dm), TINY_TRAIN, [0], 0)
        assert np.array_equal(out, dm.values)

    def test_single_missing_column_trains_one_pair(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        mask = np.zeros_like(X, dtype=bool)
        mask[:10, 1] = True
        dm = matrix_from_array(X, mask)
        targets = []
        train_gcin = gcmi.chained.train_gcin

        def counting_train_gcin(X_cond, x_target, *args, **kwargs):
            targets.append(x_target)
            return train_gcin(X_cond, x_target, *args, **kwargs)

        # the module attribute sweep looks up, as a tracer wrapping it would see
        monkeypatch.setattr(gcmi.chained, "train_gcin", counting_train_gcin)
        filled = initial_fill(dm).values
        (out,), _ = sweep(filled[None], dm, _trainable_columns(dm), TINY_TRAIN, [0], 0)
        # one fit, on the observed cells of column 1
        assert len(targets) == 1
        assert np.array_equal(targets[0], X[None, 10:, 1])
        assert not np.isnan(out).any()

    def test_each_column_conditions_on_the_encoded_current_completion(self, monkeypatch):
        # the sweep encodes once and then re-encodes each refit column's
        # missing rows; the categorical and binary columns go first
        dm, _ = mixed_matrix(seed=6)
        order = [3, 2, 0, 1]
        completion = initial_fill(dm).values  # follows the imputations written back
        fit_of = {gcmi.chained.derive_seed(0, 0, j): j for j in order}
        impute_of = {gcmi.chained.derive_seed(seed, 3): j for seed, j in fit_of.items()}
        train_gcin, impute_column = gcmi.chained.train_gcin, gcmi.chained.impute_column
        seen = []

        def cond(j, rows):
            # column j's conditioning on ``rows``: the other columns' encoding
            sl = gcmi.chained.column_slices(dm.schema)[j]
            encoded = encode_columns(completion, dm.schema)[rows]
            return np.delete(encoded, np.arange(sl.start, sl.stop), axis=1)

        def checked_train(X_cond, x_target, col, cfg, seeds, **kwargs):
            (j,) = [fit_of[seed] for seed in seeds]
            assert np.array_equal(X_cond[0], cond(j, ~dm.mask[:, j]))
            seen.append(j)
            return train_gcin(X_cond, x_target, col, cfg, seeds, **kwargs)

        def checked_impute(pair, X_cond_mis, seed):
            j = impute_of[seed]
            assert np.array_equal(X_cond_mis, cond(j, dm.mask[:, j]))
            imputed = impute_column(pair, X_cond_mis, seed)
            completion[dm.mask[:, j], j] = imputed
            return imputed

        monkeypatch.setattr(gcmi.chained, "train_gcin", checked_train)
        monkeypatch.setattr(gcmi.chained, "impute_column", checked_impute)
        assert all(dm.mask[:, j].any() for j in range(4))
        (out,), _ = sweep(initial_fill(dm).values[None], dm, order, TINY_TRAIN, [0], 0)
        assert seen == order
        assert np.array_equal(out, completion)

    def test_sequential_and_snapshot_both_complete(self):
        dm, _ = mixed_matrix(seed=5)
        filled = initial_fill(dm).values
        (out,), _ = sweep(filled[None], dm, _trainable_columns(dm), TINY_TRAIN, [0], 0)
        assert not np.isnan(out).any()
        assert np.array_equal(out[~dm.mask], filled[~dm.mask])


class TestGcmiImpute:
    def test_fully_observed_returns_copies_with_empty_traces(self):
        dm = matrix_from_array(np.random.default_rng(3).normal(size=(25, 3)))
        result = gcmi_impute(dm, tiny_config(m_imputations=2))
        assert result.m == 2
        for completed, trace in zip(result.completed, result.traces):
            assert np.array_equal(completed.values, dm.values)
            assert len(trace) == 0
            assert trace.stop_reason == "no_trainable_columns"

    def test_determinism_bit_for_bit(self):
        dm, _ = mixed_matrix(seed=7)
        a = gcmi_impute(dm, tiny_config(seed=42))
        b = gcmi_impute(dm, tiny_config(seed=42))
        assert np.array_equal(a.completed[0].values, b.completed[0].values)
        assert a.traces[0].gamma_num == b.traces[0].gamma_num

    def test_observed_preservation_and_completeness(self):
        dm, truth = mixed_matrix(seed=11)
        result = gcmi_impute(dm, tiny_config(m_imputations=2))
        for completed in result.completed:
            assert not np.isnan(completed.values).any()
            assert not completed.mask.any()
            assert np.array_equal(completed.values[~dm.mask], truth[~dm.mask])

    def test_termination_within_max_iters(self):
        dm, _ = mixed_matrix(seed=13, miss=0.4)
        cfg = tiny_config(max_chain_iters=2)
        result = gcmi_impute(dm, cfg)
        assert len(result.traces[0]) <= 2

    def test_chains_differ_across_imputations(self):
        dm, _ = mixed_matrix(seed=17, miss=0.3)
        result = gcmi_impute(dm, tiny_config(m_imputations=2))
        a, b = result.completed
        assert not np.array_equal(a.values[dm.mask], b.values[dm.mask])

    def test_sparse_column_falls_back_to_initial_fill(self, caplog):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(30, 3))
        mask = np.zeros_like(X, dtype=bool)
        mask[: 30 - (MIN_ROWS_FOR_TRAINING - 1), 2] = True  # too few observed rows
        dm = matrix_from_array(X, mask)
        observed_mean = X[~mask[:, 2], 2].mean()
        with caplog.at_level(logging.WARNING, logger="gcmi.chained"):
            result = gcmi_impute(dm, tiny_config(m_imputations=2))
        n_obs = MIN_ROWS_FOR_TRAINING - 1
        assert [r.getMessage() for r in caplog.records] == [  # one line per run, not per chain
            f"column 'X3' has only {n_obs} observed rows; keeping its initial fill"
        ]
        assert np.allclose(result.completed[0].values[mask[:, 2], 2], observed_mean)
        # the only column with missing cells is too sparse, so no chain sweeps
        assert [(len(t), t.stop_reason) for t in result.traces] == [(0, "no_trainable_columns")] * 2

    def test_chain_with_a_trainable_column_reports_a_sweep_reason(self):
        dm, _ = mixed_matrix(seed=13, miss=0.4)
        result = gcmi_impute(dm, tiny_config(max_chain_iters=1))
        assert [(len(t), t.stop_reason) for t in result.traces] == [(1, "max_iters")]

    def test_single_column_rejected(self):
        dm = matrix_from_array(np.ones((5, 1)))
        with pytest.raises(InsufficientDataError):
            gcmi_impute(dm, tiny_config())

    def test_entirely_missing_column_rejected(self):
        values = np.column_stack([np.ones(5), np.full(5, np.nan)])
        dm = DataMatrix([ColumnSchema("a", "continuous"), ColumnSchema("b", "continuous")], values)
        with pytest.raises(UnimputableColumnError, match="b"):
            gcmi_impute(dm, tiny_config())

    def test_parallel_chains_match_serial(self):
        dm, _ = mixed_matrix(seed=23)
        serial = gcmi_impute(dm, tiny_config(m_imputations=2, workers=1))
        parallel = gcmi_impute(dm, tiny_config(m_imputations=2, workers=2))
        for a, b in zip(serial.completed, parallel.completed):
            assert np.array_equal(a.values, b.values)

    def test_any_worker_count_writes_the_same_files(self, tmp_path):
        # M 5 on 1, 2, 3 and 5 workers: chains in groups of 5; 2 + 3;
        # 1 + 2 + 2; and five of 1, each group in lock-step
        dm, _ = mixed_matrix(n=60, seed=29)
        cfg = tiny_config(m_imputations=5, max_chain_iters=4, seed=0)
        manifests = {}
        for workers in (1, 2, 3, 5):
            out = tmp_path / str(workers)
            result = gcmi_impute(dm, replace(cfg, workers=workers), out_dir=out)
            manifests[workers] = json.loads(save_result(result, out)[-1].read_text())
        # chains leave their group at different sweeps
        assert len({len(t["gamma_num"]) for t in manifests[1]["traces"]}) > 1
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        for workers, manifest in manifests.items():
            out = tmp_path / str(workers)
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                if name.endswith(".csv"):
                    assert (out / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
            assert manifest.pop("wall_time_s") > 0
            assert manifest["config"].pop("workers") == workers
        assert all(manifest == manifests[1] for manifest in manifests.values())


class TestWarmStarts:
    def test_later_sweeps_start_from_the_chains_first_pairs(self, monkeypatch):
        # M 4 in one group, up to 5 sweeps: chains leave at different sweeps
        dm, _ = mixed_matrix(n=60, seed=29)
        cfg = tiny_config(m_imputations=4, max_chain_iters=5, seed=0)
        cols = _trainable_columns(dm)
        chain_seeds = [gcmi.chained.derive_seed(cfg.seed, 0, i) for i in range(4)]
        # every fit seed names its chain, sweep and column
        fit_of = {
            gcmi.chained.derive_seed(seed, s, j): (c, s, j)
            for c, seed in enumerate(chain_seeds)
            for s in range(cfg.max_chain_iters)
            for j in cols
        }
        calls = []  # (chains, sweep, column, config, start, returned pairs) per group fit
        train_gcin = gcmi.chained.train_gcin

        def recording(*args, start=None, **kwargs):
            fits = train_gcin(*args, start=start, **kwargs)
            chains, sweeps, columns = zip(*(fit_of[seed] for seed in args[4]))
            assert len(set(sweeps)) == len(set(columns)) == 1
            pairs = [pair for pair, _ in fits]
            calls.append((chains, sweeps[0], columns[0], args[3], start, pairs))
            return fits

        monkeypatch.setattr(gcmi.chained, "train_gcin", recording)
        result = gcmi_impute(dm, cfg)
        # a warm fit runs ceil(30 / 5) = 6 generator updates, all else as configured
        warm_train = replace(cfg.train, max_epochs=6)
        returned = {}
        for chains, s, j, train, start, pairs in calls:
            assert list(chains) == sorted(chains)  # the group's members in chain order
            if s == 0:
                assert start is None
                assert train == cfg.train
            else:
                assert len(start) == len(chains)
                assert all(got is returned[c, 0, j] for c, got in zip(chains, start))
                assert train == warm_train
            returned.update({(c, s, j): pair for c, pair in zip(chains, pairs)})
        # each chain fitted every column once in each of its sweeps
        sweeps = [len(trace) for trace in result.traces]
        assert sorted(returned) == sorted(
            (c, s, j) for c, n in enumerate(sweeps) for s in range(n) for j in cols
        )
        # a chain left the group while others swept on, and a chain ran a
        # third sweep, where the first sweep's pairs and the last one's differ
        assert len(set(sweeps)) > 1 and min(sweeps) > 1 and max(sweeps) > 2
        assert len({len(chains) for chains, *_ in calls}) > 1

        # the warm budget is a fifth of the configured one, rounded up
        first = {j: [returned[0, 0, j]] for j in cols}
        completed = result.completed[0].values[None]
        for max_epochs, warm_epochs in [(30, 6), (31, 7), (4, 1), (1, 1)]:
            train = replace(cfg.train, max_epochs=max_epochs)
            for start, want in [(None, max_epochs), (first, warm_epochs)]:
                calls.clear()
                sweep(completed, dm, cols, train, chain_seeds[:1], 1, start)
                assert [call[3] for call in calls] == [replace(train, max_epochs=want)] * len(cols)


class TestDualCriterion:
    """Which sweep a chain keeps and when it stops, on scripted gamma pairs:
    a chain sweeps on while either gamma falls below its value one sweep
    earlier, and keeps the sweep with the smallest gamma_num + gamma_cat,
    the earliest in a tie (none, so the initial fill, when no sum is below
    inf)."""

    STOPS = [(0.5, 0.2), (0.3, 0.25), (0.4, 0.1), (0.45, 0.15)]
    RUNS_ON = [(0.5, 0.5), (0.25, 0.5), (0.125, 0.5), (0.0625, 0.5), (0.03125, 0.5)]
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize(
        "scripts,cap,expected",
        [
            # sweep 4 improves neither gamma; sweep 3 has the smallest sum, 0.5
            ([STOPS], 6, [(4, "both_stabilized", 3)]),
            # sweeps 2 and 3 tie at 0.625: the earlier one is kept
            ([[(0.5, 0.25), (0.25, 0.375), (0.125, 0.5), (0.375, 0.625)]], 6,
             [(4, "both_stabilized", 2)]),
            # gamma_num still falls at the cap
            ([[(0.5, 0.5), (0.25, 0.125), (0.125, 0.75)]], 3, [(3, "max_iters", 2)]),
            # no sum below inf: the chain keeps its initial fill
            ([[(INF, 0.5), (INF, 0.5)]], 6, [(2, "both_stabilized", 0)]),
            # a NaN sum is never the best, and never blocks a later one
            ([[(NAN, 0.5), (0.25, 0.25), (0.125, 0.5), (0.25, 0.5)]], 6,
             [(4, "both_stabilized", 2)]),
            # two chains in one group: the first leaves, the second runs on
            ([STOPS, RUNS_ON], 5, [(4, "both_stabilized", 3), (5, "max_iters", 5)]),
        ],
        ids=["stop", "tie", "cap", "inf", "nan", "group"],
    )
    def test_stop_and_kept_sweep(self, monkeypatch, scripts, cap, expected):
        dm, _ = mixed_matrix(seed=6)
        cfg = tiny_config(m_imputations=len(scripts), max_chain_iters=cap)
        chain_seeds = [gcmi.chained.derive_seed(cfg.seed, 0, i) for i in range(len(scripts))]
        outputs = []  # (chain per row, completions) of each sweep call
        calls = [0] * len(scripts)
        sweep_ = gcmi.chained.sweep

        def recording(*args, **kwargs):
            new, pairs = sweep_(*args, **kwargs)
            outputs.append(([chain_seeds.index(seed) for seed in args[4]], new.copy()))
            return new, pairs

        def scripted(X_new, X_old, mask, schema):
            chains, new = outputs[-1]
            (c,) = [c for c, row in zip(chains, new) if np.array_equal(row, X_new)]
            calls[c] += 1
            return scripts[c][calls[c] - 1]

        monkeypatch.setattr(gcmi.chained, "sweep", recording)
        monkeypatch.setattr(gcmi.chained, "convergence_gamma", scripted)
        result = gcmi_impute(dm, cfg)

        # the group shrinks as chains leave it
        live = [len(chains) for chains, _ in outputs]
        assert live == [sum(n > s for n, _, _ in expected) for s in range(len(outputs))]
        filled = initial_fill(dm).values[dm.mask]
        for c, (n_sweeps, reason, kept) in enumerate(expected):
            trace = result.traces[c]
            assert len(trace) == n_sweeps and trace.stop_reason == reason
            gammas = np.array([trace.gamma_num, trace.gamma_cat]).T
            assert np.array_equal(gammas, np.array(scripts[c][:n_sweeps]), equal_nan=True)
            # the chain's missing cells after each of its sweeps
            cells = [filled] + [
                new[chains.index(c)][dm.mask] for chains, new in outputs if c in chains
            ]
            got = result.completed[c].values[dm.mask]
            assert [s for s, v in enumerate(cells) if np.array_equal(v, got)] == [kept]


class TestRubinPool:
    def test_degenerate_identical_entries(self):
        pooled = rubin_pool([(3.0, 0.5)] * 4)
        assert pooled.point == 3.0
        assert pooled.between_var == 0.0
        assert pooled.total_var == 0.5

    def test_hand_computed_values(self):
        pooled = rubin_pool([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
        assert pooled.point == 2.0
        assert pooled.within_var == 1.0
        assert pooled.between_var == 1.0
        assert pooled.total_var == pytest.approx(7.0 / 3.0)

    def test_scaling_identity(self):
        base = [(1.0, 0.3), (2.0, 0.4), (4.0, 0.5)]
        c = 2.5
        scaled = [(c * t, v) for t, v in base]
        a = rubin_pool(base)
        b = rubin_pool(scaled)
        assert b.between_var == pytest.approx(c**2 * a.between_var)
        assert b.within_var == a.within_var

    def test_requires_two_entries(self):
        with pytest.raises(InsufficientDataError):
            rubin_pool([(1.0, 1.0)])

    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(0, 5)), min_size=2, max_size=8
        ),
        st.randoms(),
    )
    @settings(max_examples=40, deadline=None)
    def test_total_at_least_within_and_permutation_invariant(self, entries, rand):
        pooled = rubin_pool(entries)
        assert pooled.total_var >= pooled.within_var - 1e-12
        assert pooled.between_var >= 0.0
        shuffled = list(entries)
        rand.shuffle(shuffled)
        other = rubin_pool(shuffled)
        assert other.point == pytest.approx(pooled.point)
        assert other.total_var == pytest.approx(pooled.total_var)


class TestSaveResult:
    def test_writes_csvs_and_manifest(self, tmp_path):
        dm, _ = mixed_matrix(seed=29)
        result = gcmi_impute(dm, tiny_config(m_imputations=2))
        paths = save_result(result, tmp_path, stem="run")
        names = sorted(p.name for p in paths)
        assert names == ["run_imp1.csv", "run_imp2.csv", "run_manifest.json"]
        import json

        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["m_imputations"] == 2
        assert len(manifest["traces"]) == 2
        assert manifest["files"] == ["run_imp1.csv", "run_imp2.csv"]

    def test_writes_only_the_tables_not_streamed_there(self, tmp_path, monkeypatch):
        written = []
        write_csv = gcmi.chained.write_csv

        def recorded(dm, path, *args):
            written.append(path.relative_to(tmp_path).as_posix())
            write_csv(dm, path, *args)

        monkeypatch.setattr(gcmi.chained, "write_csv", recorded)
        dm, _ = mixed_matrix(seed=29)
        result = gcmi_impute(dm, tiny_config(m_imputations=2), out_dir=tmp_path / "a", stem="run")
        assert result.files == [tmp_path / "a" / "run_imp1.csv", tmp_path / "a" / "run_imp2.csv"]
        assert written == ["a/run_imp1.csv", "a/run_imp2.csv"]
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [p.name for p in result.files]
        paths = save_result(result, tmp_path / "a", stem="run")
        assert paths == [*result.files, tmp_path / "a" / "run_manifest.json"]
        save_result(result, tmp_path / "b", stem="run")
        save_result(result, tmp_path / "a", stem="other")
        assert written[2:] == [
            "b/run_imp1.csv", "b/run_imp2.csv", "a/other_imp1.csv", "a/other_imp2.csv"
        ]
        for name in ("run_imp1.csv", "run_imp2.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
