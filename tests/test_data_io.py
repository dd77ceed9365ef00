"""CSV ingestion, schema inference, normalisation, and encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmi import (
    ColumnSchema,
    DataError,
    DataMatrix,
    ShapeError,
    denormalize,
    matrix_from_array,
    normalize,
    read_csv,
    write_csv,
    write_mask_csv,
)
from gcmi.data import column_slices, encode_columns


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadCsv:
    def test_numeric_with_missing(self, tmp_path):
        dm = read_csv(write(tmp_path, "a,b\n1.5,NA\n2.0,3.0\n"))
        assert dm.values.shape == (2, 2)
        assert dm.mask.sum() == 1
        assert dm.mask[0, 1]
        assert dm.schema[0].kind == "continuous"

    def test_two_level_text_column_is_binary(self, tmp_path):
        dm = read_csv(write(tmp_path, "flag\nyes\nno\n\n"))
        assert dm.schema[0].kind == "binary"
        assert dm.schema[0].levels == ("no", "yes")
        assert dm.mask[2, 0]

    def test_many_level_text_column_is_categorical(self, tmp_path):
        dm = read_csv(write(tmp_path, "c\nred\ngreen\nblue\n"))
        assert dm.schema[0].kind == "categorical"
        assert dm.schema[0].levels == ("blue", "green", "red")

    def test_ragged_row_names_line(self, tmp_path):
        with pytest.raises(DataError, match="line 3"):
            read_csv(write(tmp_path, "a,b\n1,2\n1\n"))

    def test_zero_rows_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            read_csv(write(tmp_path, "a,b\n"))

    def test_missing_tokens(self, tmp_path):
        dm = read_csv(write(tmp_path, "a\n1\nNaN\nNA\n\n2\n"))
        assert dm.mask[:, 0].tolist() == [False, True, True, True, False]

    def test_hints_override_inference(self, tmp_path):
        dm = read_csv(write(tmp_path, "a\n0\n1\n0\n"), schema_hints={"a": "binary"})
        assert dm.schema[0].kind == "binary"
        assert dm.schema[0].levels == ("0", "1")

    def test_binary_hint_with_wrong_cardinality_rejected(self, tmp_path):
        with pytest.raises(DataError, match="3 levels"):
            read_csv(write(tmp_path, "a\nx\ny\nz\n"), schema_hints={"a": "binary"})


    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_continuous_cell_rejected(self, tmp_path, token):
        path = write(tmp_path, f"a,b\n1.0,2.0\n3.0,4.0\n{token},5.0\n")
        with pytest.raises(DataError) as err:
            read_csv(path)
        message = str(err.value)
        assert str(path) in message
        assert "line 4" in message
        assert "'a'" in message


class TestWriteCsv:
    def test_round_trip_values_and_mask(self, tmp_path):
        text = "a,b,c\n1.5,yes,red\n,no,green\n2.5,,blue\n"
        dm = read_csv(write(tmp_path, text))
        out = tmp_path / "out.csv"
        write_csv(dm, out)
        back = read_csv(out)
        assert np.array_equal(back.mask, dm.mask)
        assert np.array_equal(
            back.values[~back.mask], dm.values[~dm.mask]
        )
        assert [c.kind for c in back.schema] == [c.kind for c in dm.schema]

    def test_float_repr_round_trips_exactly(self, tmp_path):
        values = np.array([[0.1 + 0.2], [1e-17], [123456.789012345]])
        dm = matrix_from_array(values)
        out = tmp_path / "floats.csv"
        write_csv(dm, out)
        back = read_csv(out)
        assert np.array_equal(back.values, values)

    def test_mask_csv(self, tmp_path):
        mask = np.array([[True, False], [False, True]])
        path = tmp_path / "mask.csv"
        write_mask_csv(mask, ["a", "b"], path)
        assert path.read_text() == "a,b\n1,0\n0,1\n"


class TestDataMatrix:
    def test_mask_nan_consistency_enforced(self):
        values = np.array([[np.nan, 1.0]])
        with pytest.raises(DataError):
            DataMatrix([ColumnSchema("a", "continuous"), ColumnSchema("b", "continuous")],
                       values, np.zeros((1, 2), dtype=bool))

    def test_out_of_range_codes_rejected(self):
        schema = [ColumnSchema("a", "binary", ("no", "yes"))]
        with pytest.raises(DataError):
            DataMatrix(schema, np.array([[2.0]]), np.zeros((1, 1), dtype=bool))

    def test_matrix_from_array_shape_checks(self):
        with pytest.raises(ShapeError):
            matrix_from_array(np.zeros(3))
        with pytest.raises(ShapeError):
            matrix_from_array(np.zeros((2, 2)), mask=np.zeros((3, 2), dtype=bool))


class TestNormalize:
    def test_hand_value(self):
        dm = matrix_from_array(np.array([[0.0], [10.0], [5.0]]))
        normed, _ = normalize(dm)
        assert normed.values[2, 0] == pytest.approx(0.5)
        assert normed.values.min() == 0.0 and normed.values.max() == 1.0

    def test_stats_from_observed_cells_only(self):
        dm = matrix_from_array(
            np.array([[0.0], [10.0], [99.0]]), mask=np.array([[False], [False], [True]])
        )
        normed, _ = normalize(dm)
        observed = normed.values[~normed.mask[:, 0], 0]
        assert observed.tolist() == [0.0, 1.0]

    def test_constant_column_warns_and_passes_through(self):
        dm = matrix_from_array(np.full((4, 1), 7.0))
        with pytest.warns(UserWarning, match="no spread"):
            normed, _ = normalize(dm)
        assert np.array_equal(normed.values, dm.values)

    def test_categorical_codes_untouched(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,c\n1.0,red\n3.0,green\n2.0,blue\n")
        dm = read_csv(path)
        normed, _ = normalize(dm)
        assert np.array_equal(normed.values[:, 1], dm.values[:, 1])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=20,
            unique=True,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_within_1e12(self, column):
        dm = matrix_from_array(np.array(column)[:, None])
        normed, params = normalize(dm)
        back = denormalize(normed, params)
        scale = max(1.0, np.max(np.abs(dm.values)))
        assert np.max(np.abs(back.values - dm.values)) / scale < 1e-12


class TestEncoding:
    def test_one_hot_layout(self):
        schema = [
            ColumnSchema("x", "continuous"),
            ColumnSchema("b", "binary", ("no", "yes")),
            ColumnSchema("c", "categorical", ("r", "g", "b")),
        ]
        values = np.array([[1.5, 1.0, 2.0], [-2.0, 0.0, 0.0]])
        enc = encode_columns(values, schema)
        assert enc.shape == (2, 5)
        assert enc[0].tolist() == [1.5, 1.0, 0.0, 0.0, 1.0]
        assert enc[1].tolist() == [-2.0, 0.0, 1.0, 0.0, 0.0]
        assert [
            (sl.start, sl.stop) for sl in column_slices(schema)
        ] == [(0, 1), (1, 2), (2, 5)]
