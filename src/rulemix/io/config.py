"""Flat dotted-key run configuration: parsing, defaults, and the inverse
mapping used for model-file config snapshots."""

from __future__ import annotations

import dataclasses
import math
from operator import attrgetter
from typing import Any, Union

from ..training import TrainingConfig


class ConfigError(Exception):
    """Raised for unknown keys, bad values, or violated parameter constraints."""


# flat key -> attribute path in a TrainingConfig, in model-file snapshot
# order. A key's type and default are those of its attribute. ``beta`` is
# stored once: discovery and composition share it.
_PATHS: dict[str, str] = {
    "rng_seed": "rng_seed",
    "n_phases": "n_phases",
    "ridge_lambda": "discovery.ridge_lambda",
    "early_stop": "early_stop",
    "alpha_rule": "discovery.fitness.alpha",
    "alpha_candidate": "composition.fitness.alpha",
    "beta": "discovery.fitness.beta",
    "discovery.lambda": "discovery.lambda_",
    "discovery.delta": "discovery.delta",
    "discovery.mutation_sigma": "discovery.mutation_sigma",
    "discovery.sigma_init": "discovery.sigma_init",
    "discovery.rules_per_phase": "discovery.rules_per_phase",
    "discovery.max_iter": "discovery.max_iter",
    "composition.population_size": "composition.population_size",
    "composition.tournament_k": "composition.tournament_k",
    "composition.crossover_points": "composition.crossover_points",
    "composition.crossover_prob": "composition.crossover_prob",
    "composition.mutation_rate": "composition.mutation_rate",
    "composition.elitists": "composition.elitists",
    "composition.generations_per_phase": "composition.generations_per_phase",
}

_DEFAULTS = TrainingConfig()

_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, kind: str, raw: Union[str, int, float, bool]) -> Any:
    """``raw`` as a ``kind`` value: config files give text, model files JSON
    scalars. A float must be finite either way, and a ``bool`` is no number."""
    try:
        if isinstance(raw, str):
            text = raw.strip()
            value = _WORDS[text.lower()] if kind == "bool" else (int if kind == "int" else float)(text)
        elif isinstance(raw, bool) != (kind == "bool"):
            raise ValueError
        elif kind == "float" and isinstance(raw, (int, float)):
            value = float(raw)
        elif kind != "float" and isinstance(raw, int):
            value = raw
        else:
            raise ValueError
        if kind == "float" and not math.isfinite(value):
            raise ValueError
    except (KeyError, ValueError, OverflowError):
        raise ConfigError(f"invalid {kind} value {_shown(raw)} for key {key!r}") from None
    return value


def _shown(raw: Union[str, int, float, bool]) -> str:
    """``repr`` of a rejected value; an int too long for ``repr`` (which
    raises past Python's digit limit) is described by its size instead."""
    try:
        return repr(raw)
    except ValueError:
        return f"<int of {raw.bit_length()} bits>"


def _rebuilt(default: Any, values: dict[str, Any], prefix: str = "") -> Any:
    """``default`` with ``values`` (attribute path -> value) applied. Each
    nested parameter set is built, and so validated, before the one that
    holds it."""
    kwargs = {}
    for field in dataclasses.fields(default):
        path, value = prefix + field.name, getattr(default, field.name)
        nested = dataclasses.is_dataclass(value)
        kwargs[field.name] = _rebuilt(value, values, path + ".") if nested else values.get(path, value)
    return type(default)(**kwargs)


def config_from_flat(flat: dict[str, Any]) -> TrainingConfig:
    """Build a TrainingConfig from flat dotted-key values.

    Unspecified keys take the documented defaults; unknown keys are a hard
    error so typos cannot silently fall back to defaults.
    """
    values: dict[str, Any] = {}
    for key, raw in flat.items():
        if key not in _PATHS:
            known = ", ".join(sorted(_PATHS))
            raise ConfigError(f"unknown config key {key!r}; known keys: {known}")
        path = _PATHS[key]
        values[path] = _parse_value(key, type(attrgetter(path)(_DEFAULTS)).__name__, raw)
    if _PATHS["beta"] in values:
        values["composition.fitness.beta"] = values[_PATHS["beta"]]
    try:
        return _rebuilt(_DEFAULTS, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_flat(config: TrainingConfig) -> dict[str, Any]:
    """Flatten a TrainingConfig to the dotted-key form."""
    return {key: attrgetter(path)(config) for key, path in _PATHS.items()}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment line."""
    flat: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if key in flat:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        flat[key] = value
    return flat


def load_config(path: str) -> TrainingConfig:
    """Load a config file, applying defaults for unspecified keys."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_flat(parse_config_text(text, source=path))
