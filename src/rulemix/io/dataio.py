"""CSV ingestion with row/column diagnostics."""

from __future__ import annotations

import csv
import itertools
import math
from typing import Union

import numpy as np

from ..model import DataError, Dataset


def _read_table(path: str, header: bool) -> tuple[list[list[str]], list[str] | None, int]:
    """Data rows, header names (``None`` without a header) and the file line
    number of the first data row."""
    try:
        # ``utf-8-sig`` drops the byte-order mark spreadsheet exports put first.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    names: list[str] | None = None
    first_line = 1
    if header:
        if not rows:
            raise DataError(f"{path} is empty; expected a header row")
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        first_line = 2
    if not rows:
        raise DataError(f"{path} contains no data rows")
    return rows, names, first_line


def _column_label(names: list[str] | None, index: int) -> str:
    if names is not None:
        return f"{names[index]!r}"
    return f"index {index}"


def _parse_cell(cell: str, line: int, names: list[str] | None, index: int) -> float:
    """``cell`` as a finite float; the column label is formatted only to
    report a rejected cell."""
    try:
        value = float(cell)
    except ValueError:
        problem = "non-numeric"
    else:
        if math.isfinite(value):
            return value
        problem = "non-finite"
    raise DataError(f"{problem} value {cell!r} at line {line}, column {_column_label(names, index)}")


def _parse_cells(rows: list[list[str]], names: list[str] | None, first_line: int, width: int) -> np.ndarray:
    """Cell-by-cell parse that raises the first problem in row order, a ragged
    row or a rejected cell, with its line and column."""
    parsed = np.empty((len(rows), width), dtype=float)
    for i, row in enumerate(rows):
        line = first_line + i
        if len(row) != width:
            raise DataError(f"ragged row at line {line}: expected {width} cells, got {len(row)}")
        for j, cell in enumerate(row):
            parsed[i, j] = _parse_cell(cell, line, names, j)
    return parsed


def _parse_matrix(rows: list[list[str]], names: list[str] | None, first_line: int) -> np.ndarray:
    """The table as a finite float matrix, converted in one numpy call.

    numpy converts each ``str`` cell with ``float()`` itself, so the bulk call
    accepts and rejects exactly what ``_parse_cell`` does, with the same bits.
    The per-cell loop runs only when the bulk call refuses the table, to word
    the error.
    """
    width = len(names) if names is not None else len(rows[0])
    # Widths are checked first: given a count, ``fromiter`` stops once it has
    # that many cells, so rows of 3 and 1 cells would fill a 2x2 matrix.
    if all(len(row) == width for row in rows):
        try:
            parsed = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width)
        except ValueError:
            pass
        else:
            if np.isfinite(parsed).all():
                return parsed.reshape(len(rows), width)
    return _parse_cells(rows, names, first_line, width)


def _resolve_target(target_column: Union[str, int], names: list[str] | None, width: int) -> int:
    if isinstance(target_column, str) and names is not None:
        hits = [j for j, name in enumerate(names) if name == target_column]
        if len(hits) > 1:
            raise DataError(f"target column {target_column!r} is ambiguous (appears {len(hits)} times)")
        if hits:
            return hits[0]
        # Fall through to index interpretation for numeric strings.
    try:
        index = int(target_column)
    except (TypeError, ValueError):
        available = ", ".join(repr(n) for n in names) if names else f"indices 0..{width - 1}"
        raise DataError(f"target column {target_column!r} not found; available: {available}") from None
    if not 0 <= index < width:
        available = ", ".join(repr(n) for n in names) if names else f"indices 0..{width - 1}"
        raise DataError(f"target column index {index} out of range; available: {available}")
    return index


def load_csv_with_names(
    path: str, target_column: Union[str, int], header: bool = True
) -> tuple[Dataset, list[str], str]:
    """Parse a rectangular numeric CSV into a dataset.

    Returns the dataset, the feature column names (positional ``x{i}`` names
    when the file has no header), and the resolved target column name. The
    table is converted in one numpy call; a ragged row or a non-numeric or
    non-finite cell raises ``DataError`` naming the first one in row order,
    and only then are the cells parsed one by one, to word that error.
    """
    rows, names, first_line = _read_table(path, header)
    width = len(names) if names is not None else len(rows[0])
    if width < 2:
        raise DataError("need at least one feature column and one target column")

    target_index = _resolve_target(target_column, names, width)
    matrix = _parse_matrix(rows, names, first_line)

    targets = matrix[:, target_index]
    features = np.delete(matrix, target_index, axis=1)

    if names is not None:
        feature_names = [name for j, name in enumerate(names) if j != target_index]
        target_name = names[target_index]
    else:
        feature_names = [f"x{j}" for j in range(width - 1)]
        target_name = str(target_index)
    return Dataset(features, targets), feature_names, target_name


def load_feature_matrix(path: str, header: bool = True) -> tuple[np.ndarray, list[str]]:
    """Parse a features-only CSV (no target column) into a matrix."""
    rows, names, first_line = _read_table(path, header)
    matrix = _parse_matrix(rows, names, first_line)
    feature_names = names if names is not None else [f"x{j}" for j in range(matrix.shape[1])]
    return matrix, feature_names
