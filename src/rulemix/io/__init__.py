"""Dataset ingestion, run configuration, model persistence, and the CLI."""

from .cli import cli
from .config import ConfigError, config_from_flat, config_to_flat, load_config
from .dataio import DataError, load_csv_with_names, load_feature_matrix
from .modelfile import ModelFormatError, load_model, save_model

__all__ = [
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
    "save_model",
]
