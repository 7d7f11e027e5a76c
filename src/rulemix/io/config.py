"""Flat dotted-key run configuration: parsing, defaults, and the inverse
mapping used for model-file config snapshots."""

from __future__ import annotations

import math
from typing import Any, Union

from ..composition import CompositionParams
from ..discovery import DiscoveryParams
from ..fitness import FitnessParams
from ..training import TrainingConfig


class ConfigError(Exception):
    """Raised for unknown keys, bad values, or violated parameter constraints."""


# key -> (type tag, extractor from a TrainingConfig)
_SCHEMA: dict[str, tuple[str, Any]] = {
    "rng_seed": ("int", lambda c: c.rng_seed),
    "n_phases": ("int", lambda c: c.n_phases),
    "ridge_lambda": ("float", lambda c: c.discovery.ridge_lambda),
    "early_stop": ("bool", lambda c: c.early_stop),
    "alpha_rule": ("float", lambda c: c.discovery.fitness.alpha),
    "alpha_candidate": ("float", lambda c: c.composition.fitness.alpha),
    "beta": ("float", lambda c: c.discovery.fitness.beta),
    "discovery.lambda": ("int", lambda c: c.discovery.lambda_),
    "discovery.delta": ("int", lambda c: c.discovery.delta),
    "discovery.mutation_sigma": ("float", lambda c: c.discovery.mutation_sigma),
    "discovery.sigma_init": ("float", lambda c: c.discovery.sigma_init),
    "discovery.rules_per_phase": ("int", lambda c: c.discovery.rules_per_phase),
    "discovery.max_iter": ("int", lambda c: c.discovery.max_iter),
    "discovery.max_reseed": ("int", lambda c: c.discovery.max_reseed),
    "composition.population_size": ("int", lambda c: c.composition.population_size),
    "composition.tournament_k": ("int", lambda c: c.composition.tournament_k),
    "composition.crossover_points": ("int", lambda c: c.composition.crossover_points),
    "composition.crossover_prob": ("float", lambda c: c.composition.crossover_prob),
    "composition.mutation_rate": ("float", lambda c: c.composition.mutation_rate),
    "composition.elitists": ("int", lambda c: c.composition.elitists),
    "composition.generations_per_phase": ("int", lambda c: c.composition.generations_per_phase),
}


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


def config_from_flat(flat: dict[str, Any]) -> TrainingConfig:
    """Build a TrainingConfig from flat dotted-key values.

    Unspecified keys take the documented defaults; unknown keys are a hard
    error so typos cannot silently fall back to defaults.
    """
    values = {key: extract(TrainingConfig()) for key, (_, extract) in _SCHEMA.items()}
    for key, raw in flat.items():
        if key not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(f"unknown config key {key!r}; known keys: {known}")
        values[key] = _parse_value(key, _SCHEMA[key][0], raw)

    try:
        discovery = DiscoveryParams(
            lambda_=values["discovery.lambda"],
            delta=values["discovery.delta"],
            mutation_sigma=values["discovery.mutation_sigma"],
            sigma_init=values["discovery.sigma_init"],
            rules_per_phase=values["discovery.rules_per_phase"],
            ridge_lambda=values["ridge_lambda"],
            max_iter=values["discovery.max_iter"],
            max_reseed=values["discovery.max_reseed"],
            fitness=FitnessParams(alpha=values["alpha_rule"], beta=values["beta"]),
        )
        composition = CompositionParams(
            population_size=values["composition.population_size"],
            tournament_k=values["composition.tournament_k"],
            crossover_points=values["composition.crossover_points"],
            crossover_prob=values["composition.crossover_prob"],
            mutation_rate=values["composition.mutation_rate"],
            elitists=values["composition.elitists"],
            generations_per_phase=values["composition.generations_per_phase"],
            fitness=FitnessParams(alpha=values["alpha_candidate"], beta=values["beta"]),
        )
        return TrainingConfig(
            discovery=discovery,
            composition=composition,
            n_phases=values["n_phases"],
            rng_seed=values["rng_seed"],
            early_stop=values["early_stop"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_flat(config: TrainingConfig) -> dict[str, Any]:
    """Flatten a TrainingConfig to the dotted-key form."""
    return {key: extract(config) for key, (_, extract) in _SCHEMA.items()}


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
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_flat(parse_config_text(text, source=path))
