"""Dataset ingestion, run configuration, model persistence, and the CLI."""

from .cli import cli, main
from .config import (
    ConfigError,
    config_from_flat,
    config_to_flat,
    load_config,
    parse_config_text,
)
from .dataio import DataError, load_csv_with_names, load_feature_matrix
from .modelfile import FORMAT_VERSION, ModelFormatError, load_model, save_model

__all__ = [
    "FORMAT_VERSION",
    "ConfigError",
    "DataError",
    "ModelFormatError",
    "cli",
    "config_from_flat",
    "config_to_flat",
    "load_config",
    "load_csv_with_names",
    "load_feature_matrix",
    "load_model",
    "main",
    "parse_config_text",
    "save_model",
]
