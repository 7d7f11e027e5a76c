"""Command-line interface: fit, predict, eval, cv, inspect."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, config_from_flat, config_to_flat, load_config
from .dataio import DataError, load_csv_with_names, load_feature_matrix
from ..model import Dataset
from .modelfile import ModelFormatError, load_model, save_model
from ..training import Model, fit


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; we reserve 2 for data errors.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@contextlib.contextmanager
def _writing(path: str):
    """Report a failed write of ``path`` as a data error."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _metric(key: str, value: float) -> str:
    """``key=value`` with rule counts as ints and every other value as ``repr``."""
    return f"{key}={int(value)}" if key in ("complexity", "pool_size") else f"{key}={value!r}"


def _print_metrics(metrics: dict[str, float]) -> None:
    for key, value in metrics.items():
        print(_metric(key, value))


def _check_trainable(dataset: Dataset, target_name: str, header: bool) -> None:
    """Refuse to train on targets that are all equal: there is nothing to learn."""
    if np.all(dataset.targets == dataset.targets[0]):
        label = repr(target_name) if header else f"index {target_name}"
        raise DataError(f"target column {label} is constant")


def _check_columns(model: Model, path: str, width: int, names: list[str] | None) -> None:
    """Refuse feature columns that are not the model's: a count other than
    its own, or, when the file and the model both name them, other names or
    another order. Unnamed columns are taken by position."""
    if width != model.n_features:
        raise DataError(f"{path} has {width} feature columns but the model expects {model.n_features}")
    if names is not None and model.feature_names is not None and tuple(names) != model.feature_names:
        raise DataError(
            f"{path} has feature columns {names} but the model was fitted on {list(model.feature_names)}"
        )


def _cmd_fit(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = config_from_flat({**config_to_flat(config), "rng_seed": args.seed})
    # Learn that --out cannot be written before the fit, not after it: an
    # unnamed temporary file must be creatable in its directory.
    with _writing(args.out):
        tempfile.TemporaryFile(dir=os.path.dirname(args.out) or ".").close()
    dataset, feature_names, target_name = load_csv_with_names(
        args.data, args.target, header=not args.no_header
    )
    repeated = [name for j, name in enumerate(feature_names or ()) if name in feature_names[:j]]
    if repeated:
        raise DataError(f"feature column {repeated[0]!r} appears {feature_names.count(repeated[0])} times")
    _check_trainable(dataset, target_name, header=not args.no_header)
    model = fit(dataset, config)
    names = None if feature_names is None else tuple(feature_names)
    model = replace(model, target_column=target_name, feature_names=names)
    with _writing(args.out):
        save_model(model, args.out)
    print(f"phases={len(model.history)}")
    _print_metrics(model.score(dataset))
    print(f"model={args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    X, names = load_feature_matrix(args.data, header=not args.no_header)
    _check_columns(model, args.data, X.shape[1], names)
    predictions = model.predict(X)
    with _writing(args.out), open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write("prediction\r\n")
        handle.write("%.17g\r\n" * len(predictions) % tuple(predictions.tolist()))
    print(f"predictions={args.out}")
    print(f"rows={len(predictions)}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    target = args.target if args.target is not None else model.target_column
    if target is None:
        raise _UsageError("model records no target column; pass --target")
    dataset, names, _ = load_csv_with_names(args.data, target, header=not args.no_header)
    _check_columns(model, args.data, dataset.n_features, names)
    _print_metrics(model.score(dataset))
    return 0


def _fold_seeds(seed: int, folds: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(folds)
    return [int(child.generate_state(1)[0]) for child in children]


def fold_indices(n_samples: int, folds: int, seed: int) -> list[np.ndarray]:
    """Shuffled k-fold partition: disjoint index arrays covering every row,
    sizes differing by at most one."""
    order = np.random.default_rng(seed).permutation(n_samples)
    return np.array_split(order, folds)


def _cmd_cv(args) -> int:
    k = args.folds
    if k < 2:
        raise _UsageError("--folds must be at least 2")
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative")
    config = load_config(args.config)
    dataset, _, target_name = load_csv_with_names(args.data, args.target, header=not args.no_header)
    _check_trainable(dataset, target_name, header=not args.no_header)
    if k > dataset.n_samples:
        raise DataError(f"cannot split {dataset.n_samples} rows into {k} folds")

    folds = fold_indices(dataset.n_samples, k, args.seed)
    seeds = _fold_seeds(args.seed, k)

    collected: dict[str, list[float]] = {}
    for i, holdout in enumerate(folds):
        train_mask = np.ones(dataset.n_samples, dtype=bool)
        train_mask[holdout] = False
        train = Dataset(dataset.features[train_mask], dataset.targets[train_mask])
        test = Dataset(dataset.features[holdout], dataset.targets[holdout])
        model = fit(train, replace(config, rng_seed=seeds[i]))
        metrics = model.score(test)
        parts = [f"fold={i}", f"n_train={train.n_samples}", f"n_eval={test.n_samples}"]
        for key, value in metrics.items():
            collected.setdefault(key, []).append(value)
            parts.append(_metric(key, value))
        print(" ".join(parts))
    print(f"folds={k}")
    for key, values in collected.items():
        print(f"{key}_mean={float(np.mean(values))!r}")
        print(f"{key}_std={float(np.std(values))!r}")
    return 0


def _cmd_inspect(args) -> int:
    model = load_model(args.model)
    selected = model.selected_rules()
    names = model.feature_names or [f"x{j}" for j in range(model.n_features)]
    print(f"pool_size={len(model.pool)} selected={len(selected)}")
    print(f"default_prediction={model.default_prediction:.6g}")
    for index, rule in selected:
        print(
            f"rule {index}: fitness={rule.fitness:.6g} experience={rule.experience} "
            f"error={rule.in_sample_error:.6g}"
        )
        for j, name in enumerate(names):
            print(f"  {name} in [{rule.lower[j]:.6g}, {rule.upper[j]:.6g}]")
        terms = " + ".join(f"{coefficient:.6g}*{name}" for coefficient, name in zip(rule.coefficients, names))
        print(f"  f(x) = {terms} + {rule.intercept:.6g}")
    for metrics in model.history:
        print(" ".join(_metric(key, value) for key, value in vars(metrics).items()))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rulemix", description="Interval-rule regression models.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="train a model from a CSV file")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--target", required=True, help="target column name or index")
    p_fit.add_argument("--config", required=True, help="key = value config file")
    p_fit.add_argument("--out", required=True, help="path for the model file")
    p_fit.add_argument("--seed", type=int, default=None, help="override the config rng seed")
    p_fit.add_argument("--no-header", action="store_true", help="data file has no header row")
    p_fit.set_defaults(func=_cmd_fit)

    p_predict = sub.add_parser("predict", help="predict a features-only CSV")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--data", required=True)
    p_predict.add_argument("--out", required=True, help="path for the prediction CSV")
    p_predict.add_argument("--no-header", action="store_true")
    p_predict.set_defaults(func=_cmd_predict)

    p_eval = sub.add_parser("eval", help="print metrics on a labeled CSV")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--target", default=None, help="override the target column recorded in the model")
    p_eval.add_argument("--no-header", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    p_cv = sub.add_parser("cv", help="k-fold cross validation")
    p_cv.add_argument("--data", required=True)
    p_cv.add_argument("--target", required=True)
    p_cv.add_argument("--config", required=True)
    p_cv.add_argument("--folds", type=int, required=True)
    p_cv.add_argument("--seed", type=int, required=True)
    p_cv.add_argument("--no-header", action="store_true")
    p_cv.set_defaults(func=_cmd_cv)

    p_inspect = sub.add_parser("inspect", help="print the selected rules")
    p_inspect.add_argument("--model", required=True)
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line; returns 0 on success, 1 on usage errors, 2 on
    data or model-file errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits through argparse
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))
