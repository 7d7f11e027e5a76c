import json

import numpy as np
import pytest
from dataclasses import replace

from rulemix import ModelFormatError, fit, load_model, save_model
from rulemix.io.modelfile import FORMAT_VERSION

from conftest import linear_dataset, rules_equal
from test_training import quick_config


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    data = linear_dataset(n=80, seed=12)
    model = fit(data, quick_config(seed=9))
    model = replace(model, target_column="y", feature_names=("x",))
    path = tmp_path_factory.mktemp("models") / "m.json"
    save_model(model, str(path))
    return data, model, str(path)


class TestRoundTrip:
    def test_predictions_bitwise_identical(self, trained):
        data, model, path = trained
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict(data.features), model.predict(data.features))

    def test_fields_survive(self, trained):
        _, model, path = trained
        loaded = load_model(path)
        assert loaded.default_prediction == model.default_prediction
        np.testing.assert_array_equal(loaded.feature_bounds, model.feature_bounds)
        assert np.array_equal(loaded.best.genome, model.best.genome)
        assert loaded.best.cached_mse == model.best.cached_mse
        assert loaded.best.cached_fitness == model.best.cached_fitness
        assert loaded.history == model.history
        assert loaded.config == model.config
        assert loaded.target_column == "y"
        assert loaded.feature_names == ("x",)
        assert len(loaded.pool) == len(model.pool)
        for a, b in zip(loaded.pool, model.pool):
            assert rules_equal(a, b)

    def test_double_round_trip_is_stable(self, trained, tmp_path):
        _, _, path = trained
        loaded = load_model(path)
        second = tmp_path / "again.json"
        save_model(loaded, str(second))
        assert second.read_bytes() == open(path, "rb").read()


class TestFormatErrors:
    def test_truncated_file(self, trained, tmp_path):
        _, _, path = trained
        text = open(path, encoding="utf-8").read()
        broken = tmp_path / "truncated.json"
        broken.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ModelFormatError, match="truncated|corrupt"):
            load_model(str(broken))

    def test_version_mismatch(self, trained, tmp_path):
        _, _, path = trained
        document = json.load(open(path, encoding="utf-8"))
        document["format_version"] = FORMAT_VERSION + 1
        other = tmp_path / "future.json"
        other.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(str(other))

    def test_genome_length_mismatch(self, trained, tmp_path):
        _, _, path = trained
        document = json.load(open(path, encoding="utf-8"))
        document["best"]["genome"] += "1"
        broken = tmp_path / "genome.json"
        broken.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="genome length"):
            load_model(str(broken))

    def test_missing_key(self, trained, tmp_path):
        _, _, path = trained
        document = json.load(open(path, encoding="utf-8"))
        del document["rules"]
        broken = tmp_path / "norules.json"
        broken.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="rules"):
            load_model(str(broken))

    def test_not_a_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="not a model document"):
            load_model(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, trained, tmp_path, token):
        _, _, path = trained
        document = json.load(open(path, encoding="utf-8"))
        document["default_prediction"] = "TOKEN"
        broken = tmp_path / "nonfinite.json"
        broken.write_text(json.dumps(document).replace('"TOKEN"', token), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(str(broken))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("feature_names", 7),
            ("feature_names", "x"),
            ("feature_names", ["x", "z"]),
            ("feature_names", [1]),
            ("target_column", 3),
            ("target_column", ["y"]),
            ("config", "x"),
            ("history.0.mse", "abc"),
            ("rules.0.experience", True),
            ("rules.0.experience", 1.9),
            ("rules.0.intercept", "1.5"),
            ("rules.0.lower", [True]),
            ("best.complexity", 1.9),
            ("best.fitness", False),
            ("rules.0.experience", 2**64),
            pytest.param("default_prediction", 10**400, id="default_prediction-long-int"),
            ("config.rng_seed", -5),
            pytest.param("config.ridge_lambda", 10**400, id="config.ridge_lambda-long-int"),
        ],
    )
    def test_bad_metadata_rejected(self, trained, tmp_path, key, value):
        # ``key`` is a dotted path into the document; digits index lists.
        _, _, path = trained
        document = json.load(open(path, encoding="utf-8"))
        *parents, field = [int(part) if part.isdigit() else part for part in key.split(".")]
        target = document
        for part in parents:
            target = target[part]
        target[field] = value
        broken = tmp_path / "metadata.json"
        broken.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=field):
            load_model(str(broken))

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("1e400", "default_prediction"),
            ("-1e400", "default_prediction"),
            ("1" + "0" * 5000, "not a valid model file"),
        ],
        ids=["1e400", "-1e400", "5001-digit-int"],
    )
    def test_overflowing_number_rejected(self, trained, tmp_path, literal, message):
        # json parses the first two to infinities without reaching
        # parse_constant, and refuses to parse the last one at all.
        _, _, path = trained
        document = json.load(open(path, encoding="utf-8"))
        document["default_prediction"] = "TOKEN"
        broken = tmp_path / "overflow.json"
        broken.write_text(json.dumps(document).replace('"TOKEN"', literal), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=message):
            load_model(str(broken))

    @pytest.mark.parametrize("key", ["ridge_lambda", "beta", "discovery.mutation_sigma"])
    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    def test_overflowing_config_value_rejected(self, trained, tmp_path, key, literal):
        # ``key`` is a flat config key, dots and all; json parses the literal
        # to an infinity, which a saved model could not write back.
        _, _, path = trained
        document = json.load(open(path, encoding="utf-8"))
        document["config"][key] = "TOKEN"
        broken = tmp_path / "config.json"
        broken.write_text(json.dumps(document).replace('"TOKEN"', literal), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f"bad config snapshot: .*{key}"):
            load_model(str(broken))

    def test_bad_config_snapshot(self, trained, tmp_path):
        _, _, path = trained
        document = json.load(open(path, encoding="utf-8"))
        document["config"]["no_such_key"] = 1
        broken = tmp_path / "badconfig.json"
        broken.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="config"):
            load_model(str(broken))
