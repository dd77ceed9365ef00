"""Column-typed data matrices, CSV ingestion with schema inference, and
per-column min-max normalisation.

Values are stored as a float64 (n, P) array: continuous cells hold raw
values, binary and categorical cells hold integer level codes (the level
strings live on the column's schema), and missing cells hold NaN alongside
a boolean mask (True = missing).
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass
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


@dataclass
class DataMatrix:
    """(n, P) cell values plus missingness mask and per-column schema."""

    schema: list[ColumnSchema]
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2 or self.values.shape != self.mask.shape:
            raise ShapeError("values and mask must be 2-D arrays of identical shape")
        if self.values.shape[1] != len(self.schema):
            raise ShapeError(
                f"{len(self.schema)} schema columns but values have {self.values.shape[1]}"
            )
        nan_cells = np.isnan(self.values)
        if np.any(nan_cells & ~self.mask):
            raise DataError("NaN cell marked as observed; mask inconsistent with values")
        for j, col in enumerate(self.schema):
            if col.kind in ("binary", "categorical"):
                observed = self.values[~self.mask[:, j], j]
                if observed.size and (
                    np.any(observed != np.round(observed))
                    or observed.min() < 0
                    or observed.max() >= len(col.levels)
                ):
                    raise DataError(f"column {col.name!r} has codes outside its declared levels")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def missing_fraction(self) -> np.ndarray:
        return self.mask.mean(axis=0)

    def copy(self) -> "DataMatrix":
        return DataMatrix(list(self.schema), self.values.copy(), self.mask.copy())

    def is_complete(self) -> bool:
        return not self.mask.any()


def matrix_from_array(
    X: np.ndarray,
    mask: np.ndarray | None = None,
    names: list[str] | None = None,
) -> DataMatrix:
    """Wrap a numeric array as an all-continuous DataMatrix.

    Cells flagged by ``mask`` (True = missing) are replaced with NaN.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {X.shape}")
    n, p = X.shape
    if mask is None:
        mask = np.zeros((n, p), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != X.shape:
        raise ShapeError("mask shape must match the value array")
    if names is None:
        names = [f"X{j + 1}" for j in range(p)]
    values = X.copy()
    values[mask] = np.nan
    schema = [ColumnSchema(name, "continuous") for name in names]
    return DataMatrix(schema, values, mask)


def _try_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _infer_kind(observed: list[str]) -> str:
    if all(_try_float(tok) is not None for tok in observed):
        return "continuous"
    if len(set(observed)) == 2:
        return "binary"
    return "categorical"


def read_csv(
    path: str | Path,
    schema_hints: dict[str, str] | None = None,
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS,
) -> DataMatrix:
    """Parse a headed CSV file into a DataMatrix.

    Empty cells and the tokens in ``missing_tokens`` read as missing.
    Column kinds are inferred (numeric-parseable -> continuous, two
    distinct non-numeric levels -> binary, otherwise categorical) unless
    ``schema_hints`` maps a column name to an explicit kind.
    """
    path = Path(path)
    hints = schema_hints or {}
    missing = set(missing_tokens) | {""}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        rows: list[list[str]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row and len(header) == 1:
                row = [""]  # blank line in a one-column file is a missing cell
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
    schema: list[ColumnSchema] = []
    for j, name in enumerate(header):
        col_tokens = [row[j] for row in rows]
        observed = [tok for tok in col_tokens if tok not in missing]
        if not observed:
            kind = hints.get(name, "continuous")
            schema.append(
                ColumnSchema(name, kind, ("0", "1") if kind == "binary" else ())
            )
            mask[:, j] = True
            continue
        kind = hints.get(name) or _infer_kind(observed)
        if kind == "continuous":
            parsed = []
            for tok in observed:
                val = _try_float(tok)
                if val is None:
                    raise DataError(
                        f"{path}: column {name!r} hinted continuous but {tok!r} is not numeric"
                    )
                parsed.append(val)
            levels: tuple[str, ...] = ()
            col_schema = ColumnSchema(name, "continuous")
        else:
            levels = tuple(sorted(set(observed)))
            if kind == "binary" and len(levels) != 2:
                raise DataError(
                    f"{path}: column {name!r} hinted binary but has {len(levels)} levels"
                )
            col_schema = ColumnSchema(name, kind, levels)
        code = {lev: float(i) for i, lev in enumerate(levels)}
        for i, tok in enumerate(col_tokens):
            if tok in missing:
                mask[i, j] = True
            elif kind == "continuous":
                values[i, j] = float(tok)
            else:
                values[i, j] = code[tok]
        if kind == "continuous":
            bad = np.flatnonzero(~np.isfinite(values[:, j]) & ~mask[:, j])
            if bad.size:
                i = int(bad[0])
                raise DataError(
                    f"{path}: line {i + 2}, column {name!r}: non-finite value {col_tokens[i]!r}"
                )
        schema.append(col_schema)

    dm = DataMatrix(schema, values, mask)
    logger.info(
        "read %s: %d rows, %d columns, missing fractions %s",
        path,
        n,
        p,
        np.round(dm.missing_fraction(), 3).tolist(),
    )
    return dm


def _format_cell(value: float, col: ColumnSchema) -> str:
    if col.kind == "continuous":
        return repr(float(value))
    return col.levels[int(value)]


def write_csv(dm: DataMatrix, path: str | Path) -> None:
    """Write a DataMatrix as CSV; missing cells become empty fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dm.schema])
        for i in range(dm.n_rows):
            writer.writerow(
                [
                    "" if dm.mask[i, j] else _format_cell(dm.values[i, j], col)
                    for j, col in enumerate(dm.schema)
                ]
            )


def write_mask_csv(mask: np.ndarray, names: list[str], path: str | Path) -> None:
    """Companion 0/1 mask file (1 = missing), same header as the values."""
    mask = np.asarray(mask, dtype=bool)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in mask:
            writer.writerow(["1" if cell else "0" for cell in row])


@dataclass
class Normalization:
    """Per-column affine transform (x - shift) / scale for continuous columns."""

    shift: np.ndarray
    scale: np.ndarray
    continuous: np.ndarray  # bool per column; non-continuous pass through

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        cols = np.flatnonzero(self.continuous)
        out[:, cols] = (out[:, cols] - self.shift[cols]) / self.scale[cols]
        return out

    def invert(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        cols = np.flatnonzero(self.continuous)
        out[:, cols] = out[:, cols] * self.scale[cols] + self.shift[cols]
        return out


def normalize(dm: DataMatrix) -> tuple[DataMatrix, Normalization]:
    """Min-max scale continuous columns into [0, 1] using observed cells only.

    Columns with fewer than two distinct observed values keep the identity
    transform and trigger a warning.  Binary/categorical codes pass through.
    """
    p = dm.n_cols
    shift = np.zeros(p)
    scale = np.ones(p)
    continuous = np.array([c.kind == "continuous" for c in dm.schema])
    for j, col in enumerate(dm.schema):
        if not continuous[j]:
            continue
        observed = dm.values[~dm.mask[:, j], j]
        if observed.size == 0:
            continue
        lo, hi = observed.min(), observed.max()
        if hi - lo <= 0:
            warnings.warn(
                f"column {col.name!r} has no spread among observed values; left unscaled",
                stacklevel=2,
            )
            continue
        shift[j] = lo
        scale[j] = hi - lo
    norm = Normalization(shift, scale, continuous)
    out = dm.copy()
    out.values = norm.apply(out.values)
    return out, norm


def denormalize(dm: DataMatrix, norm: Normalization) -> DataMatrix:
    """Inverse of ``normalize``; round trip is exact to ~1e-12."""
    out = dm.copy()
    out.values = norm.invert(out.values)
    return out


def encoded_width(schema: list[ColumnSchema]) -> int:
    return sum(c.width for c in schema)


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
    out = np.zeros((n, encoded_width(schema)))
    for j, (col, sl) in enumerate(zip(schema, column_slices(schema))):
        if col.kind == "categorical":
            codes = values[:, j].astype(int)
            out[np.arange(n), sl.start + codes] = 1.0
        else:
            out[:, sl.start] = values[:, j]
    return out
