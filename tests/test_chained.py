"""Chained multiple imputation: fill/order/convergence arithmetic, sweep
mechanics, end-to-end contracts on small matrices, and pooling rules."""

import logging

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
    return DataMatrix(schema, np.where(mask, np.nan, values), mask), values


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
        mask = np.array([[False], [False], [True]])
        filled = initial_fill(DataMatrix(schema, values, mask))
        assert filled.values[2, 0] == 0.0

    def test_mode_tie_breaks_to_smallest_code(self):
        schema = [ColumnSchema("c", "categorical", ("a", "b", "z"))]
        values = np.array([[2.0], [1.0], [2.0], [1.0], [np.nan]])
        mask = np.array([[False]] * 4 + [[True]])
        filled = initial_fill(DataMatrix(schema, values, mask))
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
        assert _trainable_columns(dm, order_columns(dm)) == []


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
        out = sweep(dm.values, dm, order_columns(dm), tiny_config())
        assert np.array_equal(out, dm.values)

    def test_single_missing_column_trains_one_pair(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        mask = np.zeros_like(X, dtype=bool)
        mask[:10, 1] = True
        dm = matrix_from_array(X, mask)
        trained = []
        train_gcin = gcmi.chained.train_gcin

        def counting_train_gcin(*args, column_index=None, **kwargs):
            trained.append(column_index)
            return train_gcin(*args, column_index=column_index, **kwargs)

        # the module attribute sweep looks up, as a tracer wrapping it would see
        monkeypatch.setattr(gcmi.chained, "train_gcin", counting_train_gcin)
        out = sweep(initial_fill(dm).values, dm, order_columns(dm), tiny_config())
        assert trained == [1]
        assert not np.isnan(out).any()

    def test_sequential_and_snapshot_both_complete(self):
        dm, _ = mixed_matrix(seed=5)
        filled = initial_fill(dm).values
        out = sweep(filled, dm, order_columns(dm), tiny_config())
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

    def test_single_column_rejected(self):
        dm = matrix_from_array(np.ones((5, 1)))
        with pytest.raises(InsufficientDataError):
            gcmi_impute(dm, tiny_config())

    def test_entirely_missing_column_rejected(self):
        values = np.column_stack([np.ones(5), np.full(5, np.nan)])
        mask = np.column_stack([np.zeros(5, dtype=bool), np.ones(5, dtype=bool)])
        dm = DataMatrix(
            [ColumnSchema("a", "continuous"), ColumnSchema("b", "continuous")], values, mask
        )
        with pytest.raises(UnimputableColumnError, match="b"):
            gcmi_impute(dm, tiny_config())

    def test_parallel_chains_match_serial(self):
        dm, _ = mixed_matrix(seed=23)
        serial = gcmi_impute(dm, tiny_config(m_imputations=2, workers=1))
        parallel = gcmi_impute(dm, tiny_config(m_imputations=2, workers=2))
        for a, b in zip(serial.completed, parallel.completed):
            assert np.array_equal(a.values, b.values)


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
