import csv
import importlib
import io
import json

import numpy as np
import pytest

from rulemix import (
    Model,
    Rule,
    SolutionCandidate,
    load_model,
    save_model,
)
from rulemix.io.cli import cli

# The module itself: ``rulemix.io.cli`` names the function it exports.
cli_module = importlib.import_module("rulemix.io.cli")

from conftest import linear_dataset
from test_training import quick_config

QUICK_CONFIG = """
n_phases = 2
discovery.lambda = 6
discovery.delta = 3
discovery.rules_per_phase = 2
discovery.max_iter = 30
composition.population_size = 16
composition.generations_per_phase = 8
"""


def write_csv(path, X, y=None, header=True, names=None):
    """``X`` (and ``y``) as CSV, under the header ``names``: by default
    ``x0, x1, …`` and ``y``."""
    lines = []
    d = X.shape[1]
    if header:
        if names is None:
            names = [f"x{j}" for j in range(d)] + (["y"] if y is not None else [])
        lines.append(",".join(names))
    for i in range(X.shape[0]):
        row = [format(v, ".17g") for v in X[i]]
        if y is not None:
            row.append(format(y[i], ".17g"))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    data = linear_dataset(n=60, seed=20)
    train = write_csv(tmp_path / "train.csv", data.features, data.targets)
    config = tmp_path / "quick.conf"
    config.write_text(QUICK_CONFIG, encoding="utf-8")
    return tmp_path, train, str(config)


def run_fit(workspace, out_name="model.json", seed=3):
    tmp_path, train, config = workspace
    out = tmp_path / out_name
    code = cli(
        ["fit", "--data", train, "--target", "y", "--config", config, "--out", str(out), "--seed", str(seed)]
    )
    assert code == 0
    return out


def parse_kv(output: str) -> dict:
    values = {}
    for line in output.strip().splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, _, value = line.partition("=")
            values[key] = value
    return values


def single_error_line(capsys) -> str:
    """The one ``error:`` line a failed command printed to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


class TestFit:
    def test_same_seed_byte_identical_models(self, workspace, capsys):
        first = run_fit(workspace, "a.json", seed=5)
        second = run_fit(workspace, "b.json", seed=5)
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_metrics_printed_as_key_value(self, workspace, capsys):
        run_fit(workspace)
        values = parse_kv(capsys.readouterr().out)
        assert "mse" in values and "r2" in values and "model" in values
        float(values["mse"])  # parseable

    def test_seed_changes_model(self, workspace, capsys):
        first = run_fit(workspace, "a.json", seed=1)
        second = run_fit(workspace, "b.json", seed=2)
        capsys.readouterr()
        assert first.read_bytes() != second.read_bytes()


class TestPredictAndEval:
    def test_predict_writes_csv(self, workspace, tmp_path, capsys):
        model_path = run_fit(workspace)
        X = np.linspace(-1, 1, 10).reshape(-1, 1)
        features = write_csv(tmp_path / "features.csv", X)
        out = tmp_path / "predictions.csv"
        assert cli(["predict", "--model", str(model_path), "--data", features, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 11
        [float(v) for v in lines[1:]]

    def test_predictions_file_bytes(self, workspace, tmp_path, capsys, monkeypatch):
        # 17 significant digits, CRLF line ends, nothing quoted: the bytes
        # csv.writer gives, for signed zeros, infinities and subnormals too.
        model_path = run_fit(workspace)
        values = np.array(
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 0.1, -1 / 3, 1.7976931348623157e308, 123456789.0]
        )
        monkeypatch.setattr(Model, "predict", lambda self, X: values)
        features = write_csv(tmp_path / "features.csv", np.zeros((len(values), 1)))
        out = tmp_path / "predictions.csv"
        assert cli(["predict", "--model", str(model_path), "--data", features, "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (
            b"prediction\r\n0\r\n-0\r\ninf\r\n-inf\r\n4.9406564584124654e-324\r\n"
            b"-2.5000000000000171e-310\r\n0.10000000000000001\r\n-0.33333333333333331\r\n"
            b"1.7976931348623157e+308\r\n123456789\r\n"
        )
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([["prediction"], *([format(v, ".17g")] for v in values)])
        assert out.read_bytes() == expected.getvalue().encode()

    def test_predict_dimension_mismatch_is_data_error(self, workspace, tmp_path, capsys):
        model_path = run_fit(workspace)
        X = np.zeros((4, 2))
        features = write_csv(tmp_path / "wide.csv", X)
        out = tmp_path / "p.csv"
        assert cli(["predict", "--model", str(model_path), "--data", features, "--out", str(out)]) == 2
        capsys.readouterr()

    def test_eval_uses_recorded_target_column(self, workspace, capsys):
        tmp_path, train, config = workspace
        model_path = run_fit(workspace)
        capsys.readouterr()
        assert cli(["eval", "--model", str(model_path), "--data", train]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert set(values) >= {"mse", "r2", "complexity", "pool_size", "mean_rule_volume"}
        assert float(values["mse"]) >= 0.0

    def test_eval_of_one_row_file(self, workspace, tmp_path, capsys):
        # One row means a constant target: eval scores it, as it does any file.
        model_path = run_fit(workspace)
        capsys.readouterr()
        labeled = write_csv(tmp_path / "one.csv", np.array([[0.25]]), np.array([1.5]))
        assert cli(["eval", "--model", str(model_path), "--data", labeled]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert float(values["r2"]) in (0.0, 1.0)


@pytest.fixture
def named_model(workspace, capsys):
    """The path of a model fitted on a file with header ``a,b,y``, and a
    features matrix to serve it."""
    tmp_path, _, config = workspace
    X = np.random.default_rng(9).uniform(-1.0, 1.0, size=(60, 2))
    train = write_csv(tmp_path / "ab.csv", X, 3.0 * np.abs(X[:, 0]) + 0.1 * X[:, 1], names=["a", "b", "y"])
    out = tmp_path / "ab.json"
    assert cli(["fit", "--data", train, "--target", "y", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    return str(out), X[:10]


class TestServedColumns:
    @pytest.mark.parametrize("names", [["b", "a"], ["c", "d"]], ids=["swapped", "renamed"])
    def test_other_header_is_data_error(self, named_model, tmp_path, capsys, names):
        model, X = named_model
        features = write_csv(tmp_path / "f.csv", X, names=names)
        out = tmp_path / "p.csv"
        assert cli(["predict", "--model", model, "--data", features, "--out", str(out)]) == 2
        assert single_error_line(capsys) == (
            f"error: {features} has feature columns {names!r} but the model was fitted on ['a', 'b']"
        )
        assert not out.exists()

    def test_eval_of_swapped_header_is_data_error(self, named_model, tmp_path, capsys):
        model, X = named_model
        labeled = write_csv(tmp_path / "l.csv", X, np.abs(X[:, 0]), names=["b", "a", "y"])
        assert cli(["eval", "--model", model, "--data", labeled]) == 2
        assert "has feature columns ['b', 'a'] but the model was fitted on ['a', 'b']" in single_error_line(capsys)

    def test_headerless_file_is_served_by_position(self, named_model, tmp_path, capsys):
        model, X = named_model
        out = {}
        for header in (True, False):
            features = write_csv(tmp_path / f"f{header}.csv", X, header=header, names=["a", "b"])
            out[header] = tmp_path / f"p{header}.csv"
            args = ["predict", "--model", model, "--data", features, "--out", str(out[header])]
            assert cli(args + ([] if header else ["--no-header"])) == 0
        capsys.readouterr()
        assert out[True].read_bytes() == out[False].read_bytes()

    def test_headerless_fit_records_no_names(self, workspace, tmp_path, capsys):
        _, _, config = workspace
        data = linear_dataset(n=60, seed=20)
        train = write_csv(tmp_path / "headless.csv", data.features, data.targets, header=False)
        out = tmp_path / "m.json"
        args = ["fit", "--data", train, "--target", "1", "--config", config, "--out", str(out), "--no-header"]
        assert cli(args) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["feature_names"] is None and document["target_column"] == "1"
        capsys.readouterr()
        assert cli(["inspect", "--model", str(out)]) == 0
        assert "\n  x0 in [" in capsys.readouterr().out

    def test_fit_on_a_repeated_feature_name_is_data_error(self, workspace, tmp_path, capsys):
        _, _, config = workspace
        X = np.random.default_rng(9).uniform(-1.0, 1.0, size=(20, 2))
        train = write_csv(tmp_path / "aa.csv", X, X[:, 0], names=["a", "a", "y"])
        out = tmp_path / "m.json"
        assert cli(["fit", "--data", train, "--target", "y", "--config", config, "--out", str(out)]) == 2
        assert single_error_line(capsys) == "error: feature column 'a' appears 2 times"
        assert not out.exists()


class TestCv:
    def test_fold_sizes_partition_the_rows(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(100, 1))
        y = 2 * X[:, 0] + rng.normal(0, 0.05, 100)
        data = write_csv(tmp_path / "cv.csv", X, y)
        config = tmp_path / "quick.conf"
        config.write_text(QUICK_CONFIG, encoding="utf-8")
        code = cli(
            ["cv", "--data", data, "--target", "y", "--config", str(config), "--folds", "5", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        fold_lines = [line for line in out.splitlines() if line.startswith("fold=")]
        assert len(fold_lines) == 5
        sizes = [int(line.split("n_eval=")[1].split()[0]) for line in fold_lines]
        assert sizes == [20, 20, 20, 20, 20]
        values = parse_kv(out)
        assert "mse_mean" in values and "mse_std" in values

    def test_fold_partition_is_disjoint_cover(self):
        from rulemix.io.cli import fold_indices

        for n, k in [(100, 5), (17, 3), (8, 8), (53, 7)]:
            folds = fold_indices(n, k, seed=2)
            combined = np.concatenate(folds)
            assert len(combined) == n
            assert set(combined.tolist()) == set(range(n))
            assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

    def test_too_many_folds_is_data_error(self, tmp_path, capsys):
        X = np.linspace(-1, 1, 4).reshape(-1, 1)
        y = 2 * X[:, 0]
        data = write_csv(tmp_path / "tiny.csv", X, y)
        config = tmp_path / "c.conf"
        config.write_text("", encoding="utf-8")
        assert cli(["cv", "--data", data, "--target", "y", "--config", str(config), "--folds", "9", "--seed", "0"]) == 2
        capsys.readouterr()


class TestInspect:
    def test_one_rule_model_prints_one_block_with_d_interval_lines(self, tmp_path, capsys):
        lower = np.array([-1.0, 0.0, 2.0])
        upper = np.array([1.0, 4.0, 3.0])
        rule = Rule(lower, upper, [2.0, -0.5, 0.0], 1.0, 42, 0.01, 0.9)
        model = Model(
            pool=(rule,),
            best=SolutionCandidate(np.array([True]), 0.01, 1, 0.9),
            default_prediction=0.5,
            feature_bounds=np.column_stack([lower, upper]),
            config=quick_config(),
            history=(),
            feature_names=("a", "b", "c"),
        )
        path = tmp_path / "one.json"
        save_model(model, str(path))
        assert cli(["inspect", "--model", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("rule ") == 1
        interval_lines = [line for line in out.splitlines() if " in [" in line]
        assert len(interval_lines) == 3
        assert "  a in [-1, 1]" in out
        assert "f(x) = 2*a + -0.5*b + 0*c + 1" in out

    def test_history_printed_after_the_rules(self, workspace, capsys):
        path = run_fit(workspace)
        capsys.readouterr()
        history = load_model(str(path)).history
        assert cli(["inspect", "--model", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("pool_size=") and lines[1].startswith("default_prediction=")
        assert lines[-len(history):] == [
            f"phase={m.phase} pool_size={m.pool_size} mse={m.mse!r} complexity={m.complexity} "
            f"best_fitness={m.best_fitness!r}"
            for m in history
        ]
        assert not any(line.startswith("phase=") for line in lines[: -len(history)])


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli(["fit", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err or True

    def test_unknown_subcommand(self, capsys):
        assert cli(["transmogrify"]) == 1
        capsys.readouterr()

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "c.conf"
        config.write_text("", encoding="utf-8")
        code = cli(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--target", "y", "--config", str(config), "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        capsys.readouterr()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.conf"
        config.write_text("n_phasez = 3\n", encoding="utf-8")
        data = write_csv(tmp_path / "d.csv", np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        code = cli(["fit", "--data", data, "--target", "y", "--config", str(config), "--out", str(tmp_path / "m.json")])
        assert code == 1
        capsys.readouterr()

    def _two_feature_document(self, tmp_path):
        rule = Rule([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 0.0, 5, 0.01, 0.5)
        model = Model(
            pool=(rule,),
            best=SolutionCandidate(np.array([True]), 0.01, 1, 0.5),
            default_prediction=0.5,
            feature_bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
            config=quick_config(),
            history=(),
            feature_names=("a", "b"),
        )
        path = tmp_path / "two.json"
        save_model(model, str(path))
        return json.loads(path.read_text(encoding="utf-8"))

    def _write_document(self, tmp_path, document):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_non_finite_model_value_is_data_error(self, tmp_path, capsys):
        document = self._two_feature_document(tmp_path)
        document["default_prediction"] = float("nan")
        model = self._write_document(tmp_path, document)
        features = write_csv(tmp_path / "f.csv", np.full((2, 2), 5.0))
        out = tmp_path / "p.csv"
        assert cli(["predict", "--model", model, "--data", features, "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("names", [7, ["a"]])
    def test_bad_feature_names_are_data_errors(self, tmp_path, capsys, names):
        document = self._two_feature_document(tmp_path)
        document["feature_names"] = names
        assert cli(["inspect", "--model", self._write_document(tmp_path, document)]) == 2
        captured = capsys.readouterr()
        assert "feature_names" in captured.err
        assert " in [" not in captured.out

    @pytest.mark.parametrize(
        "key, value",
        [
            ("config", "x"),
            ("history", [{"phase": 1, "pool_size": 1, "mse": "abc", "complexity": 1, "best_fitness": 0.5}]),
        ],
        ids=["config-not-an-object", "history-mse-not-a-number"],
    )
    def test_mistyped_model_field_is_data_error(self, tmp_path, capsys, key, value):
        document = self._two_feature_document(tmp_path)
        document[key] = value
        model = self._write_document(tmp_path, document)
        features = write_csv(tmp_path / "f.csv", np.full((2, 2), 0.5))
        out = tmp_path / "p.csv"
        assert cli(["predict", "--model", model, "--data", features, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_config_value_is_data_error(self, tmp_path, capsys):
        document = self._two_feature_document(tmp_path)
        document["config"]["discovery.mutation_sigma"] = "TOKEN"
        model = tmp_path / "edited.json"
        model.write_text(json.dumps(document).replace('"TOKEN"', "1e400"), encoding="utf-8")
        features = write_csv(tmp_path / "f.csv", np.full((2, 2), 0.5))
        out = tmp_path / "p.csv"
        assert cli(["predict", "--model", str(model), "--data", features, "--out", str(out)]) == 2
        assert "discovery.mutation_sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert cli(["inspect", "--model", str(bad)]) == 2
        capsys.readouterr()

    def _fit_bytes(self, tmp_path, data_bytes):
        data = tmp_path / "d.csv"
        data.write_bytes(data_bytes)
        config = tmp_path / "c.conf"
        config.write_text("", encoding="utf-8")
        return cli(["fit", "--data", str(data), "--target", "y", "--config", str(config), "--out", str(tmp_path / "m.json")])

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        assert self._fit_bytes(tmp_path, b"x,y\n0,1\n\xff,2\n") == 2
        assert "d.csv" in single_error_line(capsys)

    def test_oversized_cell_is_data_error(self, tmp_path, capsys):
        # Python's csv module refuses fields longer than 131,072 characters.
        assert self._fit_bytes(tmp_path, b"x,y\n0,1\n" + b"1" * 131_073 + b",2\n") == 2
        assert "d.csv" in single_error_line(capsys)

    def test_unwritable_fit_out_is_data_error(self, workspace, capsys, monkeypatch):
        # Found before the data is loaded or fitted.
        def refuse(*args, **kwargs):
            pytest.fail("fit ran although --out cannot be written")

        monkeypatch.setattr(cli_module, "fit", refuse)
        monkeypatch.setattr(cli_module, "load_csv_with_names", refuse)
        tmp_path, train, config = workspace
        out = tmp_path / "missing" / "m.json"
        code = cli(["fit", "--data", train, "--target", "y", "--config", config, "--out", str(out)])
        assert code == 2
        assert single_error_line(capsys).startswith(f"error: cannot write {out}: ")

    def test_unwritable_predict_out_is_data_error(self, workspace, tmp_path, capsys):
        model = run_fit(workspace)
        capsys.readouterr()
        features = write_csv(tmp_path / "f.csv", np.full((2, 1), 0.5))
        out = tmp_path / "missing" / "p.csv"
        assert cli(["predict", "--model", str(model), "--data", features, "--out", str(out)]) == 2
        assert single_error_line(capsys).startswith(f"error: cannot write {out}: ")

    def test_non_utf8_config_is_config_error(self, workspace, tmp_path, capsys):
        _, train, _ = workspace
        config = tmp_path / "latin1.conf"
        config.write_bytes(b"# caf\xe9\nn_phases = 2\n")
        code = cli(["fit", "--data", train, "--target", "y", "--config", str(config), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert str(config) in single_error_line(capsys)

    def test_negative_seed_is_config_error(self, workspace, capsys):
        tmp_path, train, config = workspace
        code = cli(
            ["fit", "--data", train, "--target", "y", "--config", config, "--out", str(tmp_path / "m.json"), "--seed", "-5"]
        )
        assert code == 1
        assert "rng_seed" in single_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("key", ["alpha_rule", "alpha_candidate"])
    def test_alpha_with_an_infinite_square_is_config_error(self, workspace, capsys, key):
        # The fitness formula squares alpha: 1e200 would make every fitness NaN.
        tmp_path, train, config = workspace
        with open(config, "a", encoding="utf-8") as handle:
            handle.write(f"{key} = 1e200\n")
        out = tmp_path / "m.json"
        assert cli(["fit", "--data", train, "--target", "y", "--config", config, "--out", str(out)]) == 1
        line = single_error_line(capsys)
        assert "Traceback" not in line and "alpha must have a finite square" in line
        assert not out.exists()

    def test_negative_cv_seed_is_usage_error(self, workspace, capsys):
        _, train, config = workspace
        assert cli(["cv", "--data", train, "--target", "y", "--config", config, "--folds", "2", "--seed", "-1"]) == 1
        assert "--seed" in single_error_line(capsys)

    @pytest.mark.parametrize(
        "folds, seed, flag", [("1", "0", "--folds"), ("2", "-3", "--seed"), ("1", "-3", "--folds")]
    )
    def test_cv_flags_checked_before_any_file_is_read(self, tmp_path, capsys, folds, seed, flag):
        config = tmp_path / "c.conf"
        config.write_text("", encoding="utf-8")
        for config_path in (str(config), str(tmp_path / "nope.conf")):
            args = ["--data", str(tmp_path / "nope.csv"), "--target", "y", "--config", config_path]
            assert cli(["cv", *args, "--folds", folds, "--seed", seed]) == 1
            assert flag in single_error_line(capsys)

    def test_extreme_values_predict_and_eval(self, workspace, tmp_path, capsys):
        model = run_fit(workspace)
        X = np.array([[1e-150], [1e120], [-4e-320]])
        features = write_csv(tmp_path / "f.csv", X)
        out = tmp_path / "p.csv"
        assert cli(["predict", "--model", str(model), "--data", features, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count("\n") == 4
        labeled = write_csv(tmp_path / "l.csv", X, np.array([1e-120, 1.0, 2.0]))
        assert cli(["eval", "--model", str(model), "--data", labeled]) == 0
        capsys.readouterr()

    def test_unfittable_training_data_is_data_error(self, workspace, tmp_path, capsys):
        _, _, config = workspace
        data = linear_dataset(n=60, seed=20)
        train = write_csv(tmp_path / "big.csv", data.features, 1e153 * data.targets)
        out = tmp_path / "m.json"
        assert cli(["fit", "--data", train, "--target", "y", "--config", config, "--out", str(out)]) == 2
        assert single_error_line(capsys).startswith("error: training targets reach ")
        assert not out.exists()

    def test_constant_target_is_data_error(self, workspace, tmp_path, capsys):
        _, _, config = workspace
        data = write_csv(tmp_path / "d.csv", np.array([[0.0], [1.0], [2.0]]), np.array([3.0, 3.0, 3.0]))
        out = tmp_path / "m.json"
        assert cli(["fit", "--data", data, "--target", "y", "--config", config, "--out", str(out)]) == 2
        assert single_error_line(capsys) == "error: target column 'y' is constant"
        assert not out.exists()
        args = ["--data", data, "--target", "y", "--config", config, "--folds", "2", "--seed", "0"]
        assert cli(["cv", *args]) == 2
        assert single_error_line(capsys) == "error: target column 'y' is constant"
        headless = tmp_path / "headless.csv"
        headless.write_text("0,3\n1,3\n", encoding="utf-8")
        args = ["--data", str(headless), "--target", "1", "--config", config, "--out", str(out), "--no-header"]
        assert cli(["fit", *args]) == 2
        assert single_error_line(capsys) == "error: target column index 1 is constant"

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        capsys.readouterr()
