"""Versioned model persistence.

The on-disk format is a JSON document (format_version 2) holding the config
snapshot as flat dotted keys, the feature bounds, the default prediction,
every pool rule, the best genome as a 0/1 string, and the per-phase metrics
history. Floats are written as shortest exact decimal representations (at
most 17 significant digits), so a save/load round trip is value-identical.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from typing import Any, get_type_hints

import numpy as np

from .config import ConfigError, config_from_flat, config_to_flat
from ..model import Rule, SolutionCandidate
from ..training import Model, PhaseMetrics

FORMAT_VERSION = 2


class ModelFormatError(Exception):
    """Raised when a model file cannot be parsed or fails schema checks."""


def save_model(model: Model, path: str) -> None:
    """Write a model as a versioned JSON document. A non-finite number
    raises before ``path`` is opened."""
    document: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "config": config_to_flat(model.config),
        "default_prediction": model.default_prediction,
        "feature_bounds": [[float(lo), float(hi)] for lo, hi in model.feature_bounds],
        "target_column": model.target_column,
        "feature_names": list(model.feature_names) if model.feature_names is not None else None,
        "rules": [_fields(rule) for rule in model.pool],
        "best": {
            "genome": "".join("1" if bit else "0" for bit in model.best.genome),
            "mse": model.best.cached_mse,
            "complexity": model.best.cached_complexity,
            "fitness": model.best.cached_fitness,
        },
        "history": [_fields(entry) for entry in model.history],
    }
    text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _require(mapping: dict[str, Any], key: str, context: str) -> Any:
    if not isinstance(mapping, dict) or key not in mapping:
        raise ModelFormatError(f"model file is missing {context}{key!r}")
    return mapping[key]


def _is_number(value: Any) -> bool:
    """A finite JSON number. ``bool`` is an ``int`` in Python but not in JSON;
    ``1e400`` parses to infinity and a long integer overflows a float."""
    if type(value) is float:
        return math.isfinite(value)
    return type(value) is int and -sys.float_info.max <= value <= sys.float_info.max


def _number(mapping: dict[str, Any], key: str, context: str) -> float:
    value = _require(mapping, key, context)
    if not _is_number(value):
        raise ModelFormatError(f"{context}{key!r} must be a finite number, got {value!r}")
    return float(value)


def _count(mapping: dict[str, Any], key: str, context: str) -> int:
    value = _require(mapping, key, context)
    if type(value) is not int or not -(2**63) <= value < 2**63:
        raise ModelFormatError(f"{context}{key!r} must be a 64-bit integer, got {value!r}")
    return value


def _float_vector(value: Any, context: str) -> np.ndarray:
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise ModelFormatError(f"{context} must be a list of finite numbers")
    return np.asarray(value, dtype=float)


def _list(mapping: dict[str, Any], key: str) -> list:
    value = _require(mapping, key, "")
    if not isinstance(value, list):
        raise ModelFormatError(f"{key} must be a list")
    return value


def _vector(mapping: dict[str, Any], key: str, context: str) -> np.ndarray:
    return _float_vector(_require(mapping, key, context), f"{context}{key!r}")


def _schema(record: type) -> tuple[tuple[str, Any], ...]:
    """The fields of the dataclass ``record`` in declared order, each with
    the reader of its declared type: vector, number or count."""
    readers = {np.ndarray: _vector, float: _number, int: _count}
    types = get_type_hints(record)
    return tuple((field.name, readers[types[field.name]]) for field in fields(record))


# The keys of a rule and of a history entry in the model file.
_SCHEMAS = {record: _schema(record) for record in (Rule, PhaseMetrics)}


def _fields(record: Any) -> dict[str, Any]:
    """The fields of ``record``, a rule or a history entry, as a JSON object;
    a vector field as a list."""
    document = {}
    for name, read in _SCHEMAS[type(record)]:
        value = getattr(record, name)
        document[name] = value.tolist() if read is _vector else value
    return document


def _read(record: type, entry: Any, context: str) -> Any:
    """A ``record`` from the JSON object ``entry``, each field read by its
    declared type."""
    try:
        return record(*(read(entry, name, context) for name, read in _SCHEMAS[record]))
    except ValueError as exc:
        raise ModelFormatError(f"{context}is invalid: {exc}") from exc


def _reject_constant(token: str) -> Any:
    raise ModelFormatError(f"model file contains the non-finite number {token}")


def load_model(path: str) -> Model:
    """Read a model file back; the exact inverse of :func:`save_model`."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to parse
        raise ModelFormatError(f"{path} is not a valid model file (truncated or corrupt): {exc}") from exc
    if not isinstance(document, dict):
        raise ModelFormatError(f"{path} is not a model document")

    version = _require(document, "format_version", "")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r}; this build reads version {FORMAT_VERSION}"
        )

    config_raw = _require(document, "config", "")
    if not isinstance(config_raw, dict):
        raise ModelFormatError("config must be an object of flat config keys")
    try:
        config = config_from_flat(config_raw)
    except ConfigError as exc:
        raise ModelFormatError(f"bad config snapshot: {exc}") from exc

    best = _require(document, "best", "")
    genome = _require(best, "genome", "best ")
    if not isinstance(genome, str) or set(genome) - {"0", "1"}:
        raise ModelFormatError("best genome must be a string of 0s and 1s")
    rules = [_read(Rule, entry, f"rule {k} ") for k, entry in enumerate(_list(document, "rules"))]
    history = [_read(PhaseMetrics, entry, f"history {i} ") for i, entry in enumerate(_list(document, "history"))]
    names = document.get("feature_names")
    # SolutionCandidate and Model check how the values relate.
    try:
        return Model(
            pool=tuple(rules),
            best=SolutionCandidate(
                np.array([bit == "1" for bit in genome], dtype=bool),
                _number(best, "mse", "best "),
                _count(best, "complexity", "best "),
                _number(best, "fitness", "best "),
            ),
            default_prediction=_number(document, "default_prediction", ""),
            feature_bounds=[_float_vector(pair, "feature_bounds entry") for pair in _list(document, "feature_bounds")],
            config=config,
            history=tuple(history),
            target_column=document.get("target_column"),
            feature_names=tuple(names) if isinstance(names, list) else names,
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path} holds an invalid model: {exc}") from exc
