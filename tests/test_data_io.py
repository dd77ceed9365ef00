"""CSV ingestion, schema inference, writers, and encoding."""

import csv
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmi import (
    ColumnSchema,
    DataError,
    DataMatrix,
    ShapeError,
    matrix_from_array,
    read_csv,
    write_csv,
    write_mask_csv,
)
from gcmi.data import (
    _BLOCK_ROWS,
    DEFAULT_MISSING_TOKENS,
    KINDS,
    ObservedText,
    column_slices,
    encode_columns,
)


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

    @pytest.mark.parametrize(
        "text,message",
        [
            ('a,b\n1,"two\nlines"\ninf,z\n', "line 4, column 'a': non-finite value 'inf'"),
            ('a,b\n1,"two\nlines"\n3\n', "line 4 has 1 fields, expected 2"),
            ('a,b\r\n1,"two\r\nlines"\r\n3\r\n', "line 4 has 1 fields, expected 2"),
        ],
    )
    def test_line_after_a_field_that_spans_lines(self, tmp_path, text, message):
        # the record starts on line 4: the quoted field before it took two
        path = write(tmp_path, text)
        with pytest.raises(DataError) as err:
            read_csv(path)
        assert str(err.value) == f"{path}: {message}"
        with pytest.raises(DataError) as err:
            reference_read_csv(path)
        assert str(err.value) == f"{path}: {message}"

    def test_trailing_blank_lines_dropped(self, tmp_path):
        dm = read_csv(write(tmp_path, "a,b\n1,2\n3,4\n\n\n"))
        assert dm.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_byte_order_mark_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        assert [col.name for col in read_csv(path).schema] == ["a", "b"]

    def test_zero_rows_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            read_csv(write(tmp_path, "a,b\n"))

    def test_missing_tokens(self, tmp_path):
        dm = read_csv(write(tmp_path, "a\n1\nNaN\nNA\n\n2\n"))
        assert dm.mask[:, 0].tolist() == [False, True, True, True, False]

    def test_schema_overrides_inference(self, tmp_path):
        schema = [ColumnSchema("a", "binary", ("0", "1"))]
        dm = read_csv(write(tmp_path, "a\n0\n1\n0\n"), schema=schema)
        assert dm.schema == schema
        assert dm.values[:, 0].tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("b,a\n1,x\n", "line 1, column 1: header ['b', 'a'], expected ['a', 'b']"),
            ("a,b\n1,x\n2,z\n", "line 3, column 'b': 'z' is not one of the levels ['x', 'y']"),
            ("a,b\n1,x\n\"two\nlines\",y\n", "line 3, column 'a': non-numeric value 'two\\nlines'"),
        ],
        ids=["column_order", "unknown_level", "not_numeric"],
    )
    def test_file_off_the_schema_rejected(self, tmp_path, text, message):
        path = write(tmp_path, text)
        schema = [ColumnSchema("a", "continuous"), ColumnSchema("b", "binary", ("x", "y"))]
        with pytest.raises(DataError) as err:
            read_csv(path, schema=schema)
        assert str(err.value) == f"{path}: {message}"

    def test_unknown_kind_rejected(self):
        # a schema's kinds come from ColumnSchema, which refuses any other
        with pytest.raises(ValueError, match="unknown column kind 'ordinal'"):
            ColumnSchema("b", "ordinal")

    @pytest.mark.parametrize("text", ["a,b\n1,x\n2,x\n3,\n4,x\n", "b\nx\n\nx\n"])
    def test_coded_column_with_fewer_than_two_levels_rejected(self, tmp_path, text):
        path = write(tmp_path, text)
        with pytest.raises(DataError) as err:
            read_csv(path)
        assert str(err.value) == (
            f"{path}: column 'b' has 1 distinct level(s); "
            "a binary or categorical column needs at least 2"
        )

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


# Reference implementations: the per-cell writer and reader that the
# column-at-a-time CSV layer replaced.  Its files and matrices must match
# theirs exactly.


def reference_write_csv(dm, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dm.schema])
        for i in range(dm.n_rows):
            writer.writerow(
                [
                    ""
                    if dm.mask[i, j]
                    else repr(float(dm.values[i, j]))
                    if col.kind == "continuous"
                    else col.levels[int(dm.values[i, j])]
                    for j, col in enumerate(dm.schema)
                ]
            )


def reference_write_mask_csv(mask, names, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in np.asarray(mask, dtype=bool):
            writer.writerow(["1" if cell else "0" for cell in row])


def _try_float(token):
    try:
        return float(token)
    except ValueError:
        return None


def reference_read_csv(path, schema=None, missing_tokens=DEFAULT_MISSING_TOKENS):
    missing = set(missing_tokens) | {""}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if schema is not None:
            names = [col.name for col in schema]
            for j in range(max(len(header), len(names))):
                if j >= min(len(header), len(names)) or header[j] != names[j]:
                    raise DataError(
                        f"{path}: line 1, column {j + 1}: header {header}, expected {names}"
                    )
        records, lines = [], []  # each record and the line it starts on
        end = reader.line_num
        for row in reader:
            records.append(row)
            lines.append(end + 1)
            end = reader.line_num
        while len(header) > 1 and records and not records[-1]:
            records.pop()  # trailing blank lines
        rows = []
        for lineno, row in zip(lines, records):
            if not row and len(header) == 1:
                row = [""]
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}"
                )
            rows.append([tok.strip() for tok in row])
    if not rows:
        raise DataError(f"{path}: no data rows")
    n, p = len(rows), len(header)
    values = np.full((n, p), np.nan)
    mask = np.zeros((n, p), dtype=bool)
    columns = []
    for j, name in enumerate(header):
        col_tokens = [row[j] for row in rows]
        observed = [tok for tok in col_tokens if tok not in missing]
        if schema is not None:
            col_schema = schema[j]
            kind, levels = col_schema.kind, col_schema.levels
        elif all(_try_float(tok) is not None for tok in observed):
            kind, levels = "continuous", ()
            col_schema = ColumnSchema(name, "continuous")
        else:
            levels = tuple(sorted(set(observed)))
            if len(levels) < 2:
                raise DataError(
                    f"{path}: column {name!r} has {len(levels)} distinct level(s); "
                    "a binary or categorical column needs at least 2"
                )
            kind = "binary" if len(levels) == 2 else "categorical"
            col_schema = ColumnSchema(name, kind, levels)
        if kind == "continuous":
            for i, tok in enumerate(col_tokens):
                if tok not in missing and _try_float(tok) is None:
                    raise DataError(
                        f"{path}: line {lines[i]}, column {name!r}: non-numeric value {tok!r}"
                    )
        code = {lev: float(i) for i, lev in enumerate(levels)}
        for i, tok in enumerate(col_tokens):
            if tok in missing:
                mask[i, j] = True
            elif kind == "continuous":
                values[i, j] = float(tok)
            elif tok in code:
                values[i, j] = code[tok]
            else:
                raise DataError(
                    f"{path}: line {lines[i]}, column {name!r}: "
                    f"{tok!r} is not one of the levels {list(levels)}"
                )
        if kind == "continuous":
            bad = np.flatnonzero(~np.isfinite(values[:, j]) & ~mask[:, j])
            if bad.size:
                i = int(bad[0])
                raise DataError(
                    f"{path}: line {lines[i]}, column {name!r}: non-finite value {col_tokens[i]!r}"
                )
        columns.append(col_schema)
    return DataMatrix(columns, values)


def assert_same_matrix(got, want):
    assert got.schema == want.schema
    assert np.array_equal(got.mask, want.mask)
    assert got.values.tobytes() == want.values.tobytes()


def assert_same_bytes(tmp_path, dm):
    write_csv(dm, tmp_path / "new.csv")
    reference_write_csv(dm, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    names = [c.name for c in dm.schema]
    write_mask_csv(dm.mask, names, tmp_path / "new_mask.csv")
    reference_write_mask_csv(dm.mask, names, tmp_path / "ref_mask.csv")
    assert (tmp_path / "new_mask.csv").read_bytes() == (tmp_path / "ref_mask.csv").read_bytes()


def mixed_matrix(n, seed=0, levels=("a,b", 'say "hi"', "two\nlines", " padded ")):
    """n rows: two continuous, one binary and one categorical column, 20 % missing."""
    rng = np.random.default_rng(seed)
    values = np.column_stack(
        [
            rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-5, 6, (n, 2)),
            rng.integers(0, 2, n),
            rng.integers(0, len(levels), n),
        ]
    ).astype(float)
    values[rng.random(values.shape) < 0.2] = np.nan
    schema = [
        ColumnSchema("x", "continuous"),
        ColumnSchema("y, \"quoted\"", "continuous"),
        ColumnSchema("flag\nname", "binary", ("no", "yes, sir")),
        ColumnSchema(" region ", "categorical", levels),
    ]
    return DataMatrix(schema, values)


class TestWriterMatchesReference:
    def test_quoted_levels_and_names(self, tmp_path):
        assert_same_bytes(tmp_path, mixed_matrix(50))

    def test_special_floats(self, tmp_path):
        values = np.array([[-0.0, 5e-324], [1e300, -1e-300], [0.1 + 0.2, 123456789.0]])
        assert_same_bytes(tmp_path, matrix_from_array(values))

    def test_all_missing_column(self, tmp_path):
        dm = mixed_matrix(20)
        dm.values[:, 1] = np.nan
        dm.mask[:, 1] = True
        dm.values[:, 3] = np.nan
        dm.mask[:, 3] = True
        assert_same_bytes(tmp_path, dm)

    @pytest.mark.parametrize("kind", ["continuous", "binary"])
    def test_one_column_with_missing_cells(self, tmp_path, kind):
        levels = ("no", "yes") if kind == "binary" else ()
        values = np.array([[1.0], [np.nan], [0.0], [np.nan]])
        dm = DataMatrix([ColumnSchema("", kind, levels)], values)
        assert_same_bytes(tmp_path, dm)

    def test_one_column_with_empty_level(self, tmp_path):
        values = np.array([[0.0], [1.0], [np.nan]])
        dm = DataMatrix([ColumnSchema("c", "binary", ("", "y"))], values)
        assert_same_bytes(tmp_path, dm)

    def test_no_columns(self, tmp_path):
        dm = DataMatrix([], np.zeros((3, 0)))
        assert_same_bytes(tmp_path, dm)

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_rows_around_the_block_size(self, tmp_path, n):
        assert_same_bytes(tmp_path, mixed_matrix(n, seed=n))

    def test_peak_memory_stays_within_a_block_budget(self, tmp_path):
        """Whole-file column lists for 20 000 x 8 cells would take about
        11 MB; block-streamed writing keeps the peak near 2 MB."""
        rng = np.random.default_rng(1)
        n = 20_000
        values = np.column_stack(
            [
                rng.standard_normal((n, 5)),
                rng.integers(0, 2, n),
                rng.integers(0, 4, n),
                rng.integers(0, 3, n),
            ]
        ).astype(float)
        values[rng.random(values.shape) < 0.2] = np.nan
        schema = [ColumnSchema(f"X{j}", "continuous") for j in range(5)] + [
            ColumnSchema("owner", "binary", ("no", "yes")),
            ColumnSchema("region", "categorical", ("east", "north", "south", "west")),
            ColumnSchema("tier", "categorical", ("gold", "silver", "bronze")),
        ]
        dm = DataMatrix(schema, values)
        tracemalloc.start()
        try:
            write_csv(dm, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# floats whose repr is easy to get wrong: signed zero, subnormals, the
# switch to exponent notation at 1e16 and below 1e-4
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-5, 9.999999999999999e15, 0.1 + 0.2]


class TestSharedObservedText:
    """``write_csv`` with the observed cells' text formatted once writes the
    same bytes as without it, for the source matrix and for a completion."""

    @given(
        n=st.integers(1, 30) | st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]),
        pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        rate=st.sampled_from([0.0, 0.2, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_bytes_with_and_without(self, n, pool, rate, seed):
        rng = np.random.default_rng(seed)
        floats = np.array(SPECIAL_FLOATS + pool)
        schema = [
            ColumnSchema("whole", "continuous"),  # never missing
            ColumnSchema("x", "continuous"),
            ColumnSchema("y, z", "continuous"),
            ColumnSchema("flag", "binary", ("no", "yes")),
            ColumnSchema("c", "categorical", ("a", "b,c", "d")),
        ]
        truth = np.column_stack(
            [rng.choice(floats, (n, 3)), rng.integers(0, 2, n), rng.integers(0, 3, n)]
        ).astype(float)
        mask = rng.random(truth.shape) < rate
        mask[:, 0] = False
        source = DataMatrix(schema, np.where(mask, np.nan, truth))
        fills = np.column_stack([rng.choice(floats, (n, 3)), truth[:, 3:]])
        completion = np.where(mask, fills, truth)
        observed = ObservedText(source)
        for dm in (source, DataMatrix(schema, completion)):
            with tempfile.TemporaryDirectory() as tmp:
                plain, shared = Path(tmp, "plain.csv"), Path(tmp, "shared.csv")
                write_csv(dm, plain)
                write_csv(dm, shared, observed)
                assert shared.read_bytes() == plain.read_bytes()

    def test_matrix_that_does_not_complete_the_source_rejected(self, tmp_path):
        source = mixed_matrix(20)
        observed = ObservedText(source)
        i = int(np.flatnonzero(~source.mask[:, 0])[0])
        changed, hidden = source.copy(), source.copy()
        changed.values[i, 0] = -changed.values[i, 0]
        hidden.mask[i, 0] = True  # the value stays, but would be written empty
        for other in (changed, hidden, mixed_matrix(21), mixed_matrix(20, seed=1)):
            with pytest.raises(ShapeError):
                write_csv(other, tmp_path / "out.csv", observed)


READ_CASES = {
    "underscores_and_unicode_digits": "a,b\n1_000,١٢\n2,3\n",
    "padded_tokens": "a , b\n  1.5 , yes \n2.5,no  \n 3 ,  yes\n",
    "missing_tokens": "a,b,c\n1,NA,x\nNaN,2,\n,3,y\n4,NaN,NA\n",
    "one_column_blank_lines": "a\n1\n\n2\n\n",
    "trailing_blank_lines": "a,b\n1,x\n2,y\n3,x\n\n\n",
    "blank_line_inside": "a,b\n1,x\n\n\n2,y\n\n",
    "only_blank_lines": "a,b\n\n\n",
    "byte_order_mark": "\ufeffa,b\n1,x\n2,y\n",
    "one_column_coded_blank_lines": "flag\nyes\n\nno\n",
    "categorical": "c,d\nred,1e-3\ngreen,-0.0\nblue,5e-324\nred,1e300\n",
    "all_missing_column": "a,b\n1,\n2,NA\n",
    "quoted_fields": 'a,b\n"x,1","say ""hi"""\n"two\nlines",z\n"x,1",z\n',
    "numeric_looking_levels": "a\n1\nx\n2\n",
    "hinted_binary": "a,b\n0,1\n1,2\n0,3\n",
    "hinted_continuous": "a,b\n1,x\n2,y\n",
    "hinted_categorical_all_missing": "a,b\n,1\nNA,2\n",
    "hinted_continuous_not_numeric": "a,b\n1,x\nfoo,y\n",
    "hinted_binary_three_levels": "a,b\nx,1\ny,2\nz,3\n",
    "non_finite": "a,b\n1.0,2.0\n3.0,inf\n",
    "nan_token_lowercase": "a,b\n1.0,nan\n3.0,4.0\n",
    "ragged": "a,b\n1,2\n1\n",
    "no_rows": "a,b\n",
    "empty": "",
    "single_level_text": "a,b\nx,1\nx,2\n",
    "schema_one_level": "a,b\n1,y\n2,\n3,y\n",
    "schema_numeric_levels": "a\n10\n\n2\n10\n",
    "schema_header_order": "b,a\nx,1\n",
    "schema_header_short": "a,b\n1,x\n",
    "schema_header_long": "a,b\n1,x\n",
    "schema_non_finite_after_non_numeric": "a,b\ninf,x\nfoo,y\n",
    "schema_ragged": "a,b\n1,x\n2\n",
    "schema_no_rows": "a,b\n\n",
}

def _schema(*kinds):
    """Columns a, b, ... of the given kinds; a binary column's levels are
    x/y, a categorical one's x/y/z."""
    levels = {"continuous": (), "binary": ("x", "y"), "categorical": ("x", "y", "z")}
    return [ColumnSchema(name, kind, levels[kind]) for name, kind in zip("abc", kinds)]


# cases read against a schema: the kinds it declares, not inferred ones
READ_SCHEMAS = {
    "hinted_binary": [ColumnSchema("a", "binary", ("0", "1")), ColumnSchema("b", "continuous")],
    "hinted_continuous": _schema("continuous", "binary"),
    "hinted_categorical_all_missing": _schema("categorical", "continuous"),
    "hinted_continuous_not_numeric": _schema("continuous", "binary"),
    "hinted_binary_three_levels": _schema("binary", "continuous"),
    "schema_one_level": _schema("continuous", "categorical"),
    "schema_numeric_levels": [ColumnSchema("a", "categorical", ("1", "2", "10"))],
    "schema_header_order": _schema("continuous", "binary"),
    "schema_header_short": _schema("continuous", "binary", "binary"),
    "schema_header_long": _schema("continuous"),
    "schema_non_finite_after_non_numeric": _schema("continuous", "binary"),
    "schema_ragged": _schema("continuous", "binary"),
    "schema_no_rows": _schema("continuous", "binary"),
}


class TestReaderMatchesReference:
    @pytest.mark.parametrize("case", sorted(READ_CASES))
    def test_same_matrix_or_same_error(self, tmp_path, case):
        path = write(tmp_path, READ_CASES[case])
        schema = READ_SCHEMAS.get(case)
        try:
            want = reference_read_csv(path, schema)
        except ValueError as exc:
            with pytest.raises(type(exc)) as err:
                read_csv(path, schema)
            assert str(err.value) == str(exc)
        else:
            assert_same_matrix(read_csv(path, schema), want)

    def test_custom_missing_tokens(self, tmp_path):
        path = write(tmp_path, "a,b\n1,-\n?,2\n3,4\n")
        assert_same_matrix(
            read_csv(path, missing_tokens=("-", "?")),
            reference_read_csv(path, missing_tokens=("-", "?")),
        )

    def test_written_files(self, tmp_path):
        path = tmp_path / "m.csv"
        for n in (50, _BLOCK_ROWS + 1):
            write_csv(mixed_matrix(n, seed=n, levels=("a,b", 'say "hi"', "two\nlines")), path)
            assert_same_matrix(read_csv(path), reference_read_csv(path))


# Level and name text built from characters that need quoting; it never
# parses as a number and is never a missing token once stripped.
_text = st.text(alphabet='ab,"\n\r \'é', max_size=4).filter(lambda t: t == t.strip())
_level = _text.filter(lambda t: t != "")


@st.composite
def mixed_matrices(draw):
    """Small mixed matrices that reading gives back unchanged: coded
    columns list their levels sorted and use every one of them."""
    n = draw(st.integers(1, 7))
    schema, columns = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(KINDS))
        n_levels = {"continuous": 0, "binary": 2, "categorical": draw(st.integers(3, 4))}[kind]
        if n_levels > n:
            kind, n_levels = "continuous", 0
        miss = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if kind == "continuous":
            cells = st.floats(allow_nan=False, allow_infinity=False)
            col = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
            levels = ()
        else:
            names = st.lists(_level, min_size=n_levels, max_size=n_levels, unique=True)
            levels = tuple(sorted(draw(names)))
            codes = st.lists(st.integers(0, n_levels - 1), min_size=n, max_size=n)
            col = np.array(draw(codes), dtype=float)
            col[:n_levels] = np.arange(n_levels)
            miss[:n_levels] = False
        col[miss] = np.nan
        schema.append(ColumnSchema(draw(_text), kind, levels))
        columns.append(col)
    return DataMatrix(schema, np.column_stack(columns))


class TestWriteReadProperty:
    @given(mixed_matrices())
    @settings(max_examples=150, deadline=None)
    def test_reference_bytes_and_round_trip(self, tmp_path_factory, dm):
        tmp_path = tmp_path_factory.mktemp("prop")
        assert_same_bytes(tmp_path, dm)
        assert_same_matrix(read_csv(tmp_path / "new.csv"), dm)

    @given(mixed_matrices())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_against_the_schema(self, tmp_path_factory, dm):
        # two coded columns inference could not read back: one whose
        # observed cells hold a single level, one with no observed cell
        rows = np.arange(dm.n_rows)
        schema = dm.schema + [
            ColumnSchema("one", "binary", ("no", "yes")),
            ColumnSchema("none", "categorical", ("p", "q", "r")),
        ]
        one, none = np.where(rows % 2, np.nan, 1.0), np.full(rows.size, np.nan)
        values = np.column_stack([dm.values, one, none])
        dm = DataMatrix(schema, values)
        path = tmp_path_factory.mktemp("schema") / "m.csv"
        write_csv(dm, path)
        assert_same_matrix(read_csv(path, schema=schema), dm)
        assert_same_matrix(reference_read_csv(path, schema), dm)


class TestDataMatrix:
    def test_out_of_range_codes_rejected(self):
        schema = [ColumnSchema("a", "binary", ("no", "yes"))]
        with pytest.raises(DataError):
            DataMatrix(schema, np.array([[2.0]]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_cell_rejected_naming_column_and_row(self, value):
        X = np.zeros((8, 3))
        X[5, 1] = X[7, 1] = X[6, 2] = value
        with pytest.raises(DataError, match=rf"column 'X2': non-finite value {value} in row 5 "):
            matrix_from_array(X)
        schema = [ColumnSchema(name, "continuous") for name in "abc"]
        with pytest.raises(DataError, match="column 'b'"):
            DataMatrix(schema, X)
        # a masked cell is missing, whatever it held
        assert matrix_from_array(X, mask=np.isinf(X)).mask.sum() == 3

    def test_matrix_from_array_shape_checks(self):
        with pytest.raises(ShapeError):
            matrix_from_array(np.zeros(3))
        with pytest.raises(ShapeError):
            matrix_from_array(np.zeros((2, 2)), mask=np.zeros((3, 2), dtype=bool))

    def test_matrix_from_array_infers_mask_from_nan(self):
        dm = matrix_from_array(np.array([[1.0, np.nan], [2.0, 3.0]]))
        assert dm.mask.tolist() == [[False, True], [False, False]]
        assert dm.values[0, 0] == 1.0 and np.isnan(dm.values[0, 1])

    def test_matrix_from_array_explicit_mask_must_cover_nan(self):
        with pytest.raises(DataError, match="NaN cell marked as observed"):
            matrix_from_array(
                np.array([[1.0, np.nan], [2.0, 3.0]]), mask=np.zeros((2, 2), dtype=bool)
            )


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
