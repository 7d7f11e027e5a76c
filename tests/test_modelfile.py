import json
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemix import ModelFormatError, Rule, fit, load_model, save_model
from rulemix.io import cli
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


def read_document(path):
    """The saved model at ``path`` as parsed JSON."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def document_paths(value, prefix=()):
    """Every path into a JSON value, the root included: keys of objects and
    indices of lists, plus one new key per object."""
    yield prefix
    if isinstance(value, dict):
        yield prefix + ("new key",)
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from document_paths(child, prefix + (key,))


def placed(document, path, value):
    """``document`` with ``value`` at ``path``; the root path replaces it all."""
    if not path:
        return value
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    target[last] = value
    return document


# Any JSON value, non-finite floats and integers past 64 bits included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


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
        assert second.read_bytes() == Path(path).read_bytes()

    def test_unserialisable_model_leaves_the_file_as_it_was(self, trained, tmp_path):
        _, model, path = trained
        broken = replace(model, default_prediction=float("nan"))
        existing, missing = tmp_path / "existing.json", tmp_path / "missing.json"
        existing.write_bytes(Path(path).read_bytes())
        for target in (existing, missing):
            with pytest.raises(ValueError, match="not JSON compliant"):
                save_model(broken, str(target))
        assert existing.read_bytes() == Path(path).read_bytes()
        assert not missing.exists()

    def test_model_keeps_the_parts_it_checked(self, trained, tmp_path):
        # A Model checks its parts when it is built and keeps them fixed: the
        # pool as a tuple of its own, the bounds read-only. So the file saved
        # is the model that was checked.
        _, model, path = trained
        rules = list(model.pool)
        rebuilt = replace(model, pool=rules)
        rules.append(Rule([0.0], [1.0], [1.0], 0.0, 5, 0.1))
        rules[0] = rules[1]
        assert isinstance(rebuilt.pool, tuple)
        assert all(kept is rule for kept, rule in zip(rebuilt.pool, model.pool, strict=True))
        with pytest.raises(ValueError, match="read-only"):
            rebuilt.feature_bounds[0, 0] = -1.0
        target = tmp_path / "rebuilt.json"
        save_model(rebuilt, str(target))
        assert target.read_bytes() == Path(path).read_bytes()

    @pytest.mark.parametrize(
        "rule, message",
        [
            (Rule([0.0], [1.0], [1.0], 0.0, 5, 0.1), "best genome length"),
            (Rule([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 0.0, 5, 0.1), "vectors must have length 1"),
        ],
        ids=["one-rule-more", "another-width"],
    )
    def test_model_whose_pool_grew_is_refused(self, trained, rule, message):
        # A model's pool is a tuple: it grows only into a new Model, which
        # checks its parts when it is built, so no grown model reaches a file.
        _, model, _ = trained
        with pytest.raises(AttributeError):
            model.pool.append(rule)
        with pytest.raises(ValueError, match=message):
            replace(model, pool=model.pool + (rule,))


GOLDEN = Path(__file__).resolve().parent / "data" / "model_v2.json"


def test_committed_file_resaves_and_inspects_unchanged(tmp_path, capsys):
    # A format-2 file written before rules were one flat record: a 41-row,
    # one-feature fit of sin(3x) with seed 1, three phases of two rules each.
    # Loading, saving and inspecting it use no matrix product, so its bytes
    # and text hold on any BLAS.
    resaved = tmp_path / "resaved.json"
    save_model(load_model(str(GOLDEN)), str(resaved))
    assert resaved.read_bytes() == GOLDEN.read_bytes()
    assert cli(["inspect", "--model", str(GOLDEN)]) == 0
    expected = GOLDEN.with_name("model_v2_inspect.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


class TestFormatErrors:
    def test_truncated_file(self, trained, tmp_path):
        _, _, path = trained
        text = Path(path).read_text(encoding="utf-8")
        broken = tmp_path / "truncated.json"
        broken.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ModelFormatError, match="truncated|corrupt"):
            load_model(str(broken))

    @pytest.mark.parametrize(
        "version", [FORMAT_VERSION - 1, FORMAT_VERSION + 1], ids=["older", "newer"]
    )
    def test_version_mismatch(self, trained, tmp_path, version):
        _, _, path = trained
        document = read_document(path)
        document["format_version"] = version
        other = tmp_path / "future.json"
        other.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(str(other))

    def test_genome_length_mismatch(self, trained, tmp_path):
        _, _, path = trained
        document = read_document(path)
        document["best"]["genome"] += "0"  # the popcount still matches
        broken = tmp_path / "genome.json"
        broken.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="genome length"):
            load_model(str(broken))

    def test_missing_key(self, trained, tmp_path):
        _, _, path = trained
        document = read_document(path)
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
        document = read_document(path)
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
        document = read_document(path)
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
        "change, message",
        [
            (dict(coefficients=[1.0, 2.0]), "rule 0 is invalid: .*one length"),
            (dict(lower=[0.0, 0.0], upper=[1.0, 1.0], coefficients=[1.0, 2.0]), "rule 0 vectors must have length 1"),
            (dict(lower=[1.0], upper=[0.0]), "rule 0 is invalid: lower bound exceeds upper bound"),
            (dict(fitness=1.5), "rule 0 is invalid: fitness"),
            (dict(experience=0), "rule 0 is degenerate"),
        ],
    )
    def test_bad_rule_rejected(self, trained, tmp_path, change, message):
        _, _, path = trained
        document = read_document(path)
        document["rules"][0].update(change)
        broken = tmp_path / "rule.json"
        broken.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=message):
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
        document = read_document(path)
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
        document = read_document(path)
        document["config"][key] = "TOKEN"
        broken = tmp_path / "config.json"
        broken.write_text(json.dumps(document).replace('"TOKEN"', literal), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f"bad config snapshot: .*{key}"):
            load_model(str(broken))

    def test_bad_config_snapshot(self, trained, tmp_path):
        _, _, path = trained
        document = read_document(path)
        document["config"]["no_such_key"] = 1
        broken = tmp_path / "badconfig.json"
        broken.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="config"):
            load_model(str(broken))


class TestFuzzedModelFiles:
    """A damaged model file loads or raises ModelFormatError, nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), JSON_VALUES)
    def test_any_value_at_any_path(self, trained, tmp_path_factory, data, value):
        _, _, path = trained
        document = read_document(path)
        where = data.draw(st.sampled_from(list(document_paths(document))))
        broken = tmp_path_factory.getbasetemp() / "fuzzed.json"
        broken.write_text(json.dumps(placed(document, where, value)), encoding="utf-8")
        try:
            load_model(str(broken))
        except ModelFormatError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_truncated_at_any_byte(self, trained, tmp_path_factory, data):
        _, _, path = trained
        raw = Path(path).read_bytes()
        broken = tmp_path_factory.getbasetemp() / "cut.json"
        cut = data.draw(st.integers(0, len(raw) - 1))
        broken.write_bytes(raw[:cut])
        try:
            load_model(str(broken))
        except ModelFormatError:
            pass
        else:  # only the trailing newline was cut
            assert raw[cut:].isspace()
