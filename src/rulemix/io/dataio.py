"""CSV ingestion with row/column diagnostics."""

from __future__ import annotations

import csv
import math
import re
from typing import Union

import numpy as np

from ..model import DataError, Dataset


# Characters that keep a body off the bulk path: csv's quote, and the
# separators U+001C to U+001F, which numpy strips from a cell as whitespace
# and ``float()`` refuses.
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'

# One line with its end, split where a file opened with ``newline=""`` splits
# lines: at ``\r\n``, ``\r`` or ``\n``.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _read_text(path: str) -> str:
    """The file decoded in one piece, so a decode error names its byte offset
    in the file."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # Spreadsheet exports put a UTF-8 byte-order mark first.
    return text.removeprefix("\ufeff")


def _parse_plain(text: str, start: int, width: int | None) -> np.ndarray | None:
    """The body ``text[start:]`` parsed by numpy's C text reader, or ``None``
    when it is not plain or the reader refuses it. ``start`` is 0 or just
    past the ``\n`` that ends the first line; the body is never copied out.

    A plain body has none of ``_NOT_PLAIN``, ends its lines only with ``\\n``
    or ``\\r\\n``, and has no blank line and no line longer than the csv field
    limit. So ``csv.reader`` would split each line at every ``,`` and never
    raise. numpy strips a cell's whitespace and converts it with the C
    routine that ``float()`` calls, so an accepted cell has ``float()``'s
    bits; the cells it refuses that ``float()`` takes (``1_0``, non-ASCII
    digits) go to the per-cell loop.
    """
    if any(text.find(char, start) >= 0 for char in _NOT_PLAIN):
        return None
    if text.find("\r", start) >= 0 and text.count("\r", start) != text.count("\r\n", start):
        return None
    lines = text.split("\n")
    if start:
        del lines[0]
    if lines[-1] == "":
        lines.pop()
    # numpy skips a blank line (and warns when all are blank), where csv
    # gives an empty, ragged row.
    if not lines or "" in lines or "\r" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        matrix = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if matrix.shape[0] != len(lines) or width not in (None, matrix.shape[1]) or not np.isfinite(matrix).all():
        return None
    return matrix


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


def _load_table(path: str, header: bool) -> tuple[np.ndarray, list[str] | None]:
    """The table as a finite float matrix, and its header names (``None``
    without a header).

    The header is split by ``csv.reader``. A plain body goes through
    ``_parse_plain`` in bulk; any other body, or one it refuses, is split by
    ``csv.reader`` and parsed by ``_parse_cells``, which words the first
    problem in row order. So does the body after a header that spans lines
    or ends in a bare ``\r``.
    """
    text = _read_text(path)
    reader = csv.reader(line[0] for line in _LINE.finditer(text))
    names: list[str] | None = None
    try:
        start: int | None = 0
        if header:
            row = next(reader, None)
            if row is None:
                raise DataError(f"{path} is empty; expected a header row")
            names = [cell.strip() for cell in row]
            end = _LINE.match(text).end()
            start = end if reader.line_num == 1 and text[end - 1] == "\n" else None
        matrix = None if start is None else _parse_plain(text, start, None if names is None else len(names))
        if matrix is None:
            rows = list(reader)
            if not rows:
                raise DataError(f"{path} contains no data rows")
            width = len(names) if names is not None else len(rows[0])
            matrix = _parse_cells(rows, names, 2 if header else 1, width)
    except csv.Error as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return matrix, names


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
) -> tuple[Dataset, list[str] | None, str]:
    """Parse a rectangular numeric CSV into a dataset.

    Returns the dataset, the feature column names (``None`` when the file
    has no header), and the resolved target column name (its index as a
    string without a header). A ragged row or a non-numeric or non-finite
    cell raises ``DataError`` naming the first one in row order.
    """
    matrix, names = _load_table(path, header)
    width = matrix.shape[1]
    if width < 2:
        raise DataError("need at least one feature column and one target column")

    target_index = _resolve_target(target_column, names, width)
    targets = matrix[:, target_index]
    features = np.delete(matrix, target_index, axis=1)
    if names is None:
        return Dataset(features, targets), None, str(target_index)
    return Dataset(features, targets), names[:target_index] + names[target_index + 1 :], names[target_index]


def load_feature_matrix(path: str, header: bool = True) -> tuple[np.ndarray, list[str] | None]:
    """Parse a features-only CSV (no target column) into a matrix, and its
    header names (``None`` without a header)."""
    return _load_table(path, header)
