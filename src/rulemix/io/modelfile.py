"""Versioned model persistence.

The on-disk format is a JSON document (format_version 1) holding the config
snapshot as flat dotted keys, the feature bounds, the default prediction,
every pool rule, the best genome as a 0/1 string, and the per-phase metrics
history. Floats are written as shortest exact decimal representations (at
most 17 significant digits), so a save/load round trip is value-identical.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

import numpy as np

from .config import ConfigError, config_from_flat, config_to_flat
from ..model import IntervalCondition, LinearSubmodel, Pool, Rule, SolutionCandidate
from ..training import Model, PhaseMetrics

FORMAT_VERSION = 1


class ModelFormatError(Exception):
    """Raised when a model file cannot be parsed or fails schema checks."""


def save_model(model: Model, path: str) -> None:
    """Write a model as a versioned JSON document."""
    document: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "config": config_to_flat(model.config),
        "default_prediction": model.default_prediction,
        "feature_bounds": [[float(lo), float(hi)] for lo, hi in model.feature_bounds],
        "target_column": model.target_column,
        "feature_names": list(model.feature_names) if model.feature_names is not None else None,
        "rules": [
            {
                "lower": rule.condition.lower.tolist(),
                "upper": rule.condition.upper.tolist(),
                "coefficients": rule.submodel.coefficients.tolist(),
                "intercept": rule.submodel.intercept,
                "experience": rule.experience,
                "in_sample_error": rule.in_sample_error,
                "fitness": rule.fitness,
            }
            for rule in model.pool
        ],
        "best": {
            "genome": "".join("1" if bit else "0" for bit in model.best.genome),
            "mse": model.best.cached_mse,
            "complexity": model.best.cached_complexity,
            "fitness": model.best.cached_fitness,
        },
        "history": [
            {
                "phase": entry.phase,
                "pool_size": entry.pool_size,
                "mse": entry.mse,
                "complexity": entry.complexity,
                "best_fitness": entry.best_fitness,
            }
            for entry in model.history
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle, indent=2, allow_nan=False)
        handle.write("\n")


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

    bounds_raw = _require(document, "feature_bounds", "")
    if not isinstance(bounds_raw, list) or not bounds_raw:
        raise ModelFormatError("feature_bounds must be a non-empty list of [min, max] pairs")
    bounds_rows = []
    for pair in bounds_raw:
        row = _float_vector(pair, "feature_bounds entry")
        if row.shape != (2,) or row[0] > row[1]:
            raise ModelFormatError("feature_bounds entries must be [min, max] pairs with min <= max")
        bounds_rows.append(row)
    feature_bounds = np.vstack(bounds_rows)
    n_features = feature_bounds.shape[0]

    rules_raw = _require(document, "rules", "")
    if not isinstance(rules_raw, list):
        raise ModelFormatError("rules must be a list")
    rules = []
    for k, entry in enumerate(rules_raw):
        context = f"rule {k} "
        lower = _float_vector(_require(entry, "lower", context), f"rule {k} lower")
        upper = _float_vector(_require(entry, "upper", context), f"rule {k} upper")
        coefficients = _float_vector(
            _require(entry, "coefficients", context), f"rule {k} coefficients"
        )
        if lower.shape != (n_features,) or upper.shape != (n_features,) or coefficients.shape != (n_features,):
            raise ModelFormatError(f"rule {k} vectors must have length {n_features}")
        try:
            rules.append(
                Rule(
                    IntervalCondition(lower, upper),
                    LinearSubmodel(coefficients, _number(entry, "intercept", context)),
                    _count(entry, "experience", context),
                    _number(entry, "in_sample_error", context),
                    _number(entry, "fitness", context),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"rule {k} is invalid: {exc}") from exc

    best_raw = _require(document, "best", "")
    genome_text = _require(best_raw, "genome", "best ")
    if not isinstance(genome_text, str) or set(genome_text) - {"0", "1"}:
        raise ModelFormatError("best genome must be a string of 0s and 1s")
    if len(genome_text) != len(rules):
        raise ModelFormatError(
            f"best genome length {len(genome_text)} does not match rule count {len(rules)}"
        )
    genome = np.array([bit == "1" for bit in genome_text], dtype=bool)
    try:
        best = SolutionCandidate(
            genome,
            _number(best_raw, "mse", "best "),
            _count(best_raw, "complexity", "best "),
            _number(best_raw, "fitness", "best "),
        )
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"best candidate is invalid: {exc}") from exc

    history_raw = _require(document, "history", "")
    if not isinstance(history_raw, list):
        raise ModelFormatError("history must be a list")
    history = tuple(
        PhaseMetrics(
            _count(entry, "phase", "history "),
            _count(entry, "pool_size", "history "),
            _number(entry, "mse", "history "),
            _count(entry, "complexity", "history "),
            _number(entry, "best_fitness", "history "),
        )
        for entry in history_raw
    )

    target_column = document.get("target_column")
    if target_column is not None and not isinstance(target_column, str):
        raise ModelFormatError("target_column must be a string or null")
    feature_names = document.get("feature_names")
    if feature_names is not None:
        if (
            not isinstance(feature_names, list)
            or len(feature_names) != n_features
            or not all(isinstance(name, str) for name in feature_names)
        ):
            raise ModelFormatError(f"feature_names must be null or a list of {n_features} strings")
        feature_names = tuple(feature_names)

    try:
        pool = Pool(rules)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    return Model(
        pool=pool,
        best=best,
        default_prediction=_number(document, "default_prediction", ""),
        feature_bounds=feature_bounds,
        config=config,
        history=history,
        target_column=target_column,
        feature_names=feature_names,
    )
