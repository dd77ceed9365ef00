"""Column-typed data matrices, CSV ingestion with schema inference, CSV
writers, and the one-hot encoding the per-column models condition on.

Values are stored as a float64 (n, P) array: continuous cells hold raw
values, binary and categorical cells hold integer level codes (the level
strings live on the column's schema), and missing cells hold NaN.  A
matrix's boolean mask (True = missing) is its NaN cells, computed once
when the matrix is built.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeError

logger = logging.getLogger(__name__)

DEFAULT_MISSING_TOKENS = ("", "NA", "NaN")

KINDS = ("continuous", "binary", "categorical")


@dataclass
class ColumnSchema:
    """Name, kind and (for binary/categorical) the ordered level strings."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == "binary" and len(self.levels) != 2:
            raise ValueError(f"binary column {self.name!r} must declare exactly 2 levels")
        if self.kind == "categorical" and len(self.levels) < 2:
            raise ValueError(f"categorical column {self.name!r} must declare >= 2 levels")

    @property
    def width(self) -> int:
        """Width of this column in the one-hot encoded matrix."""
        return len(self.levels) if self.kind == "categorical" else 1


def check_codes(codes: np.ndarray, col: ColumnSchema) -> None:
    """Raise ``DataError`` unless each of ``codes`` codes one of the coded
    column ``col``'s levels: an integer in [0, len(col.levels))."""
    if codes.size and (
        np.any(codes != np.round(codes)) or codes.min() < 0 or codes.max() >= len(col.levels)
    ):
        raise DataError(f"column {col.name!r} has codes outside its declared levels")


@dataclass
class DataMatrix:
    """(n, P) cell values and per-column schema; NaN cells are the missing
    ones, and ``mask`` (True = missing) holds them, computed once here.
    Every other cell must be finite."""

    schema: list[ColumnSchema]
    values: np.ndarray
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ShapeError(f"values must be a 2-D array, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.schema):
            raise ShapeError(
                f"{len(self.schema)} schema columns but values have {self.values.shape[1]}"
            )
        self.mask = np.isnan(self.values)
        infinite = np.isinf(self.values)
        if infinite.any():
            j = int(infinite.any(axis=0).argmax())
            i = int(infinite[:, j].argmax())
            raise DataError(
                f"column {self.schema[j].name!r}: non-finite value {self.values[i, j]} "
                f"in row {i} (counted from 0)"
            )
        for j, col in enumerate(self.schema):
            if col.kind != "continuous":
                check_codes(self.values[~self.mask[:, j], j], col)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def missing_fraction(self) -> np.ndarray:
        return self.mask.mean(axis=0)

    def copy(self) -> "DataMatrix":
        return DataMatrix(list(self.schema), self.values.copy())


def matrix_from_array(
    X: np.ndarray,
    mask: np.ndarray | None = None,
    names: list[str] | None = None,
) -> DataMatrix:
    """Wrap a numeric array as an all-continuous DataMatrix.

    Cells flagged by ``mask`` (True = missing) are replaced with NaN.
    Without a mask, the NaN cells of ``X`` are the missing ones; with one,
    a NaN cell the mask marks as observed is a ``DataError``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {X.shape}")
    values = X.copy()
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != X.shape:
            raise ShapeError("mask shape must match the value array")
        if np.any(np.isnan(X) & ~mask):
            raise DataError("NaN cell marked as observed; mask inconsistent with values")
        values[mask] = np.nan
    if names is None:
        names = [f"X{j + 1}" for j in range(X.shape[1])]
    return DataMatrix([ColumnSchema(name, "continuous") for name in names], values)


def _start_line(records: list[list[str]], first: int, i: int) -> int:
    """The file line on which ``records[i]`` starts, ``records[0]`` starting
    on line ``first``: a line per record before it and one more per line
    break (CR LF, CR or LF, as ``csv.reader.line_num`` counts them) inside
    their quoted fields.  Only an error message needs it."""
    fields = (f for row in itertools.islice(records, i) for f in row)
    return first + i + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in fields)


def _parse_column(
    path: Path,
    name: str,
    tokens: list[str],
    miss: np.ndarray,
    col: ColumnSchema | None,
    line_of: Callable[[int], int],
) -> tuple[ColumnSchema, np.ndarray]:
    """Schema and values of one column whose observed cells are ``~miss``.

    Parsed against ``col`` when given: a continuous column's observed
    tokens must be finite numbers, a coded column's among its levels.
    Without it a column is continuous when every observed token parses as
    a float (one ``np.array(..., dtype=float)`` attempt), otherwise coded
    by its sorted distinct tokens.  A message about row ``i`` names the
    file line ``line_of(i)``.
    """
    values = np.full(len(tokens), np.nan)
    observed = [tok for tok, m in zip(tokens, miss.tolist()) if not m]
    if col is None or col.kind == "continuous":
        try:
            values[~miss] = np.array(observed, dtype=float)
        except ValueError:
            for i in np.flatnonzero(~miss).tolist() if col is not None else ():
                try:
                    float(tokens[i])
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_of(i)}, column {name!r}: "
                        f"non-numeric value {tokens[i]!r}"
                    ) from None
        else:
            bad = np.flatnonzero(~np.isfinite(values) & ~miss)
            if bad.size:
                i = int(bad[0])
                raise DataError(
                    f"{path}: line {line_of(i)}, column {name!r}: "
                    f"non-finite value {tokens[i]!r}"
                )
            return col or ColumnSchema(name, "continuous"), values
    if col is None:
        levels = tuple(sorted(set(observed)))
        if len(levels) < 2:
            raise DataError(
                f"{path}: column {name!r} has {len(levels)} distinct level(s); "
                "a binary or categorical column needs at least 2"
            )
        col = ColumnSchema(name, "binary" if len(levels) == 2 else "categorical", levels)
    code = {lev: i for i, lev in enumerate(col.levels)}
    values[~miss] = list(map(code.get, observed))  # an unknown level's None reads as NaN
    unknown = np.flatnonzero(np.isnan(values) & ~miss)
    if unknown.size:
        i = int(unknown[0])
        raise DataError(
            f"{path}: line {line_of(i)}, column {name!r}: "
            f"{tokens[i]!r} is not one of the levels {list(col.levels)}"
        )
    return col, values


def read_csv(
    path: str | Path,
    schema: list[ColumnSchema] | None = None,
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS,
) -> DataMatrix:
    """Parse a headed CSV file into a DataMatrix.

    Empty cells and the tokens in ``missing_tokens`` read as missing.
    Without ``schema``, column kinds are inferred: numeric-parseable ->
    continuous, two distinct non-numeric levels -> binary, otherwise
    categorical, with the levels in sorted order.  With it, the file is
    parsed against it: the header must list its names, in order, a
    continuous column's observed cells must be finite numbers, and a
    coded column's observed cells take the codes of their levels, of
    which they may hold any subset.

    The file is UTF-8, with or without a byte-order mark.  Blank lines end
    a file of several columns; in a one-column file they are missing cells.
    A message about a row names the file line its record starts on, which
    a quoted field that spans lines moves down from its row number.
    """
    path = Path(path)
    missing = set(missing_tokens) | {""}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            p = len(header)
            names = None if schema is None else [c.name for c in schema]
            if names is not None and header != names:
                pairs = zip([*header, None], [*names, None])
                j = next(j for j, (got, want) in enumerate(pairs) if got != want)
                raise DataError(
                    f"{path}: line 1, column {j + 1}: header {header}, expected {names}"
                )
            first = reader.line_num + 1  # the line the first record starts on
            records = list(reader)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not readable as text: {exc}") from None
    line_of = functools.partial(_start_line, records, first)
    while p > 1 and records and not records[-1]:
        records.pop()  # blank lines that end the file
    if p == 1:
        records = [row or [""] for row in records]  # a blank line is a missing cell
    ragged = next((i for i, row in enumerate(records) if len(row) != p), None)
    if ragged is not None:
        raise DataError(
            f"{path}: line {line_of(ragged)} has {len(records[ragged])} fields, expected {p}"
        )
    if not records:
        raise DataError(f"{path}: no data rows")

    n = len(records)
    values = np.empty((n, p))
    columns: list[ColumnSchema] = []
    for j, (name, column) in enumerate(zip(header, zip(*records))):
        tokens = list(map(str.strip, column))
        miss = np.fromiter(map(missing.__contains__, tokens), dtype=bool, count=n)
        col = None if schema is None else schema[j]
        col, values[:, j] = _parse_column(path, name, tokens, miss, col, line_of)
        columns.append(col)

    dm = DataMatrix(columns, values)
    logger.info(
        "read %s: %d rows, %d columns, missing fractions %s",
        path,
        n,
        p,
        np.round(dm.missing_fraction(), 3).tolist(),
    )
    return dm


# Rows formatted and written per block: bounds the writers' memory.
_BLOCK_ROWS = 4096


def _csv_field(text: str) -> str:
    """``text`` as csv.writer spells it inside a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _csv_lines(columns: list[list[str]], n: int) -> str:
    """``n`` CSV lines from per-column lists of already quoted fields."""
    if not columns:
        return "\r\n" * n
    lines = map(",".join, zip(*columns))
    if len(columns) == 1:  # csv.writer quotes a row whose only field is empty
        lines = ('""' if line == "" else line for line in lines)
    return "\r\n".join(lines) + "\r\n"


def _write_table(path: str | Path, names: list[str], n_rows: int, block) -> None:
    """Header plus ``n_rows`` rows; ``block(s, e)`` gives rows s:e as columns of fields."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([[_csv_field(name)] for name in names], 1))
        for s in range(0, n_rows, _BLOCK_ROWS):
            e = min(s + _BLOCK_ROWS, n_rows)
            fh.write(_csv_lines(block(s, e), e - s))


def _float_fields(values: np.ndarray, miss: np.ndarray) -> list[str]:
    """``repr`` of each cell of a float column, ``""`` for a missing one."""
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(miss).tolist():
        cells[i] = ""
    return cells


class ObservedText:
    """The CSV fields of a matrix's observed continuous cells, formatted once
    for writing several completions of it (see ``write_csv``).

    Per continuous column it keeps one newline-joined string per block of
    rows, a missing cell an empty line: a byte per character, where a list
    of field strings would spend a string object (some 70 bytes) per cell.
    """

    def __init__(self, dm: DataMatrix):
        self.source = dm
        rows = [slice(s, s + _BLOCK_ROWS) for s in range(0, dm.n_rows, _BLOCK_ROWS)]
        self.blocks = {
            j: ["\n".join(_float_fields(dm.values[r, j], dm.mask[r, j])) for r in rows]
            for j, col in enumerate(dm.schema)
            if col.kind == "continuous"
        }

    def check_completes(self, dm: DataMatrix) -> None:
        """Raise unless ``dm`` keeps the source's schema, shape and, bit for
        bit, every observed cell."""
        src = self.source
        kept = ~src.mask
        if (
            dm.schema != src.schema
            or dm.mask.shape != src.mask.shape
            or (dm.mask & kept).any()
            or not np.array_equal(dm.values[kept].view(np.int64), src.values[kept].view(np.int64))
        ):
            raise ShapeError("the matrix written does not complete the one whose text is shared")


def write_csv(dm: DataMatrix, path: str | Path, observed: ObservedText | None = None) -> None:
    """Write a DataMatrix as CSV; missing cells become empty fields.

    Continuous cells are written as ``repr(float)``, coded cells as their
    level strings.  ``observed``, the formatted text of a matrix that
    ``dm`` completes (same schema, every observed cell kept), saves
    formatting those cells again: only the cells missing there are
    formatted.  The file is the same with or without it.
    """
    if observed is not None:
        observed.check_completes(dm)
    # per coded column: its quoted levels by code, then "" for a missing cell
    level_fields = [
        None if col.kind == "continuous" else [*map(_csv_field, col.levels), ""]
        for col in dm.schema
    ]

    def block(s: int, e: int) -> list[list[str]]:
        columns = []
        for j, table in enumerate(level_fields):
            miss = dm.mask[s:e, j]
            if table is not None:
                codes = np.where(miss, len(table) - 1, dm.values[s:e, j]).astype(int)
                cells = list(map(table.__getitem__, codes.tolist()))
            elif observed is None:
                cells = _float_fields(dm.values[s:e, j], miss)
            else:
                cells = observed.blocks[j][s // _BLOCK_ROWS].split("\n")
                holes = np.flatnonzero(observed.source.mask[s:e, j])
                filled = _float_fields(dm.values[s:e, j][holes], miss[holes])
                for i, text in zip(holes.tolist(), filled):
                    cells[i] = text
            columns.append(cells)
        return columns

    _write_table(path, [c.name for c in dm.schema], dm.n_rows, block)


def write_mask_csv(mask: np.ndarray, names: list[str], path: str | Path) -> None:
    """Companion 0/1 mask file (1 = missing), same header as the values."""
    mask = np.asarray(mask, dtype=bool)
    digits = ("0", "1")

    def block(s: int, e: int) -> list[list[str]]:
        return [list(map(digits.__getitem__, col)) for col in mask[s:e].T.tolist()]

    _write_table(path, names, len(mask), block)


def column_slices(schema: list[ColumnSchema]) -> list[slice]:
    """Slice of each column inside the one-hot encoded matrix."""
    slices = []
    start = 0
    for col in schema:
        slices.append(slice(start, start + col.width))
        start += col.width
    return slices


def encode_columns(values: np.ndarray, schema: list[ColumnSchema]) -> np.ndarray:
    """Encode a complete code matrix: continuous/binary as-is, categorical one-hot."""
    n = values.shape[0]
    out = np.zeros((n, sum(col.width for col in schema)))
    for j, (col, sl) in enumerate(zip(schema, column_slices(schema))):
        if col.kind == "categorical":
            codes = values[:, j].astype(int)
            out[np.arange(n), sl.start + codes] = 1.0
        else:
            out[:, sl.start] = values[:, j]
    return out
