import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemix import (
    ConfigError,
    DataError,
    DiscoveryParams,
    TrainingConfig,
    config_from_flat,
    config_to_flat,
    load_csv_with_names,
    load_feature_matrix,
)
from rulemix.io.config import load_config, parse_config_text
from rulemix.io import dataio
from rulemix.io.dataio import _parse_cells, _parse_plain


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def outcome(parse, *args):
    """What a parse gives: the matrix's shape and bytes, or its ``DataError`` message."""
    try:
        matrix = parse(*args)
    except DataError as exc:
        return "error", str(exc)
    return matrix.shape, matrix.tobytes()


def csv_outcome(path, header):
    """What a loader must give: the decoded file's ``csv.reader`` rows
    through the per-cell parse, as an ``outcome``."""
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        return "error", f"cannot read {path}: {exc}"
    names = None
    if header:
        if not rows:
            return "error", f"{path} is empty; expected a header row"
        names = [cell.strip() for cell in rows.pop(0)]
    if not rows:
        return "error", f"{path} contains no data rows"
    width = len(names) if names is not None else len(rows[0])
    return outcome(_parse_cells, rows, names, 2 if header else 1, width)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n0,0\n1,2\n2,4\n")
        data = load_csv_with_names(path, "y")[0]
        assert data.n_samples == 3
        assert data.n_features == 1
        np.testing.assert_array_equal(data.feature_bounds, [[0.0, 2.0]])
        np.testing.assert_array_equal(data.targets, [0.0, 2.0, 4.0])

    def test_names_and_target_resolution(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,y\n0,5,1\n1,6,2\n")
        data, names, target = load_csv_with_names(path, "y")
        assert names == ["a", "b"]
        assert target == "y"
        assert data.n_features == 2

    def test_target_by_index_without_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "0,0\n1,2\n2,4\n")
        data, names, target = load_csv_with_names(path, 1, header=False)
        assert data.n_samples == 3
        assert names is None
        assert target == "1"

    def test_missing_target_names_available_columns(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n0,1\n1,2\n")
        with pytest.raises(DataError, match="'a', 'b'"):
            load_csv_with_names(path, "z")

    def test_nan_cell_cites_row_and_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n0,1\nnan,2\n")
        with pytest.raises(DataError, match=r"line 3.*'x'"):
            load_csv_with_names(path, "y")

    def test_non_numeric_cell_cites_row_and_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n0,1\n1,oops\n")
        with pytest.raises(DataError, match=r"'oops' at line 3.*'y'"):
            load_csv_with_names(path, "y")

    @pytest.mark.parametrize(
        "text, header, message",
        [
            ("x,y\n0,1\n1,oops\n", True, "non-numeric value 'oops' at line 3, column 'y'"),
            ("x,y\n0,1\ninf,2\n", True, "non-finite value 'inf' at line 3, column 'x'"),
            ("0,1\n1,\n", False, "non-numeric value '' at line 2, column index 1"),
        ],
    )
    def test_rejected_cell_message(self, tmp_path, text, header, message):
        path = write(tmp_path, "d.csv", text)
        with pytest.raises(DataError) as excinfo:
            load_csv_with_names(path, 1, header=header)
        assert str(excinfo.value) == message

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n0,1\n1\n")
        with pytest.raises(DataError, match="ragged row at line 3"):
            load_csv_with_names(path, "y")

    def test_rows_whose_cells_add_up_to_the_table_are_still_ragged(self, tmp_path):
        # 3 + 1 cells fill a 2x2 matrix, so row widths must be checked one by one.
        path = write(tmp_path, "d.csv", "x,y\n1,2,3\n4\n")
        with pytest.raises(DataError) as excinfo:
            load_feature_matrix(path)
        assert str(excinfo.value) == "ragged row at line 2: expected 2 cells, got 3"

    def test_byte_order_mark_before_header(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n0,0\n1,2\n2,3\n")
        data, names, target = load_csv_with_names(str(path), "x")
        assert (names, target) == (["y"], "x")
        np.testing.assert_array_equal(data.targets, [0.0, 1.0, 2.0])

    def test_byte_order_mark_before_headerless_data(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,5\n")
        data, _, _ = load_csv_with_names(str(path), 1, header=False)
        np.testing.assert_array_equal(data.features, [[1.0], [3.0]])
        X, _ = load_feature_matrix(str(path), header=False)
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 5.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv_with_names(str(tmp_path / "absent.csv"), "y")

    def test_decode_error_names_the_byte_offset_in_the_file(self, tmp_path):
        # Past the first 8 KiB, so a chunked decode would name another offset.
        path = tmp_path / "d.csv"
        head = b"\xef\xbb\xbfx,y\n" + b"0.25,1.5\n" * 2_500
        path.write_bytes(head + b"\xff,2\n")
        with pytest.raises(DataError, match=f"can't decode byte 0xff in position {len(head)}:"):
            load_csv_with_names(str(path), "y")

    def test_constant_target_loads(self, tmp_path):
        # Only training refuses a constant target; a labelled file to score may have one.
        path = write(tmp_path, "d.csv", "x,y\n0,3\n1,3\n2,3\n")
        data, _, _ = load_csv_with_names(path, "y")
        np.testing.assert_array_equal(data.targets, [3.0, 3.0, 3.0])

    def test_single_column_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "y\n1\n2\n")
        with pytest.raises(DataError, match="at least one feature"):
            load_csv_with_names(path, "y")

    def test_no_data_rows(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv_with_names(path, "y")

    def test_duplicate_target_name_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "y,y\n0,1\n1,2\n")
        with pytest.raises(DataError, match="ambiguous"):
            load_csv_with_names(path, "y")


class TestLoadFeatureMatrix:
    def test_parse_with_header(self, tmp_path):
        path = write(tmp_path, "f.csv", "a,b\n0,1\n2,3\n")
        X, names = load_feature_matrix(path)
        np.testing.assert_array_equal(X, [[0.0, 1.0], [2.0, 3.0]])
        assert names == ["a", "b"]

    @pytest.mark.parametrize(
        "text, header, message",
        [("", True, "is empty; expected a header row"), ("a,b\n", True, "no data rows"), ("", False, "no data rows")],
    )
    def test_empty_tables_rejected(self, tmp_path, text, header, message):
        path = write(tmp_path, "e.csv", text)
        with pytest.raises(DataError, match=message):
            load_feature_matrix(path, header=header)

    def test_parse_without_header(self, tmp_path):
        path = write(tmp_path, "f.csv", "0,1\n2,3\n")
        X, names = load_feature_matrix(path, header=False)
        assert X.shape == (2, 2)
        assert names is None


# Pieces of CSV-like input: numbers and separators, quoting, every line
# ending and blank lines, a BOM, bytes that are not UTF-8, NUL, a comment
# mark, tab, no-break space and a separator numpy strips as whitespace, a
# numeral only ``float`` takes, non-finite words, and runs long enough to
# pass Python's 131,072-character csv field limit.
CSV_PIECES = st.sampled_from(
    [b"0", b"1", b"-2.5", b"1e400", b",", b'"', b"\r\n", b"\n", b"\r", b"\n\n", b"\xef\xbb\xbf", b"\xff",
     b"\x00", b"#", b"\t", b"1_0", b"\xc2\xa0", b"\x1c", b"nan", b"inf", b"1e200", b"1e-200", b"x", b" ", b"7" * 40,
     b"," * 12, b"1" * 131_073]
)


class TestMalformedCsv:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(CSV_PIECES, max_size=24).map(b"".join), st.booleans())
    def test_loads_finite_or_raises_data_error(self, tmp_path_factory, content, header):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(content)
        try:
            dataset, _, _ = load_csv_with_names(str(path), 0, header=header)
        except DataError:
            pass
        else:
            assert np.isfinite(dataset.features).all() and np.isfinite(dataset.targets).all()
        try:
            matrix, _ = load_feature_matrix(str(path), header=header)
        except DataError:
            pass
        else:
            assert matrix.ndim == 2 and np.isfinite(matrix).all()
        # Both loaders give what csv.reader and the per-cell loop give.
        expected = csv_outcome(path, header)
        assert outcome(lambda: load_feature_matrix(str(path), header=header)[0]) == expected
        try:
            dataset, _, _ = load_csv_with_names(str(path), 0, header=header)
        except DataError as exc:
            if expected[0] != "error":
                assert expected[0][1] < 2
                expected = "error", "need at least one feature column and one target column"
            assert str(exc) == expected[1]
        else:
            matrix = np.column_stack([dataset.targets, dataset.features])
            assert (matrix.shape, matrix.tobytes()) == expected


# Cell texts: numerals as ``repr``, ``%g`` and ``%e`` write them, spellings
# ``float`` accepts that look unlike one, non-finite and out-of-range
# literals, whitespace of every kind, and any text.
CELL_TEXTS = st.one_of(
    st.floats().map(repr),
    st.floats().map("{:g}".format),
    st.floats().map("{:e}".format),
    st.sampled_from(["0", "-0", "1_0", " 1.5 ", "\x1c1\x1f", "\u0661\u0662", "nan", "-inf", "1e400", "1e-400", "abc"]),
    st.text(alphabet="0123456789_.eE+- \t\x0b\x0c\x1c\x00\xa0\u2009infatyINFATY\u0661\uff11", max_size=12),
    st.text(max_size=6),
)


class TestPlainTables:
    @settings(max_examples=600, deadline=None)
    @given(CELL_TEXTS.filter(lambda text: not set(text) & set(',"\r\n')))
    def test_bulk_parse_accepts_a_cell_only_as_float_does(self, text):
        # The bulk path rests on this: a cell numpy's text reader accepts,
        # ``float()`` accepts too, with the same bits.
        parsed = _parse_plain(text, 0, 1)
        if parsed is not None:
            assert parsed.tobytes() == np.float64(float(text)).tobytes()

    @pytest.fixture
    def cell_loop_refused(self, monkeypatch):
        class CellLoopReached(Exception):
            pass

        def refuse(*args):
            raise CellLoopReached

        monkeypatch.setattr(dataio, "_parse_cells", refuse)
        return CellLoopReached

    @pytest.mark.parametrize(
        "content, header",
        [
            (b"x,y\n0,1.5\n-2,3e-5\n", True),
            (b"x,y\r\n0,1.5\r\n-2,3e-5", True),
            (b'"x","y"\n0,1.5\n-2,3e-5\n', True),
            (b"0,1.5\n-2,3e-5\n", False),
        ],
        ids=["lf", "crlf", "quoted-header", "no-header"],
    )
    def test_plain_tables_load_in_bulk(self, tmp_path, cell_loop_refused, content, header):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        X, _ = load_feature_matrix(str(path), header=header)
        np.testing.assert_array_equal(X, [[0.0, 1.5], [-2.0, 3e-5]])

    @pytest.mark.parametrize(
        "content",
        [
            b'x,y\n"0",1.5\n',
            b"x,y\n0,1.5\r-2,3\n",
            b"x,y\r0,1.5\n-2,3\n",
            b"x,y\n0,1.5\n\n",
            b"x,y\n1_0,1.5\n",
            b"x,y\n0\x1c,1.5\n",
            b'"x\ny",z\n0,1\n',
        ],
        ids=[
            "quoted-cell",
            "bare-cr",
            "bare-cr-header",
            "blank-line",
            "underscore",
            "separator-space",
            "two-line-header",
        ],
    )
    def test_other_tables_reach_the_cell_loop(self, tmp_path, cell_loop_refused, content):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        with pytest.raises(cell_loop_refused):
            load_feature_matrix(str(path))

    def test_bare_cr_header_loads_its_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"x,y\r0,1.5\r\n-2,3e-5\n")
        X, names = load_feature_matrix(str(path))
        assert names == ["x", "y"]
        np.testing.assert_array_equal(X, [[0.0, 1.5], [-2.0, 3e-5]])

    @pytest.mark.parametrize(
        "content, message",
        [
            # csv reads the rest of the file into the header's one cell.
            (b'"x\n0\n1\n', "contains no data rows"),
            (b"x,y\n" + b"0" * 131_073 + b",1\n", "field larger than field limit"),
        ],
        ids=["header-quote-open-to-the-end", "oversized-finite-cell"],
    )
    def test_csv_errors_outrank_the_bulk_parse(self, tmp_path, content, message):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message):
            load_feature_matrix(str(path))


class TestValueRange:
    def test_any_finite_magnitude_loads(self, tmp_path):
        # Only fits limit magnitudes; the loaders take every finite value.
        path = write(tmp_path, "d.csv", "a,b,y\n1e-150,-4e-320,1e300\n1e120,-0.0,-1e-120\n")
        data, _, _ = load_csv_with_names(path, "y")
        np.testing.assert_array_equal(data.features, [[1e-150, -4e-320], [1e120, 0.0]])
        np.testing.assert_array_equal(data.targets, [1e300, -1e-120])
        X, _ = load_feature_matrix(path)
        np.testing.assert_array_equal(X[:, 2], [1e300, -1e-120])

    def test_first_bad_cell_in_row_order_is_reported(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n0,1\nnan,2\nabc,3\n")
        with pytest.raises(DataError, match="non-finite value 'nan' at line 3, column 'x'"):
            load_csv_with_names(path, "y")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y\n0,1\nabc,2\n3\n", "non-numeric value 'abc' at line 3, column 'x'"),
            ("x,y\n0\n1,abc\n", "ragged row at line 2: expected 2 cells, got 1"),
            ("x,y\n0,1\n2,1e400\n4,5\n", "non-finite value '1e400' at line 3, column 'y'"),
        ],
        ids=["bad-cell-before-ragged-row", "ragged-row-before-bad-cell", "lone-overflow"],
    )
    def test_first_problem_in_row_order_is_reported(self, tmp_path, text, message):
        path = write(tmp_path, "d.csv", text)
        with pytest.raises(DataError) as excinfo:
            load_feature_matrix(path)
        assert str(excinfo.value) == message


# ``key = value`` lines: every known key, a few unknown ones, and values of
# every kind a key takes, out of range, non-finite, too long or not numbers.
CONFIG_LINES = st.builds(
    "{} = {}".format,
    st.sampled_from([*config_to_flat(TrainingConfig()), "", "bogus", "discovery.max_reseed"]),
    st.one_of(
        st.integers(-(2**70), 2**70),
        st.floats(),
        st.booleans(),
        st.sampled_from(["yes", "no", "nan", "-inf", "1e400", "9" * 5000, "0x10", "1_000", "=", "#"]),
        st.text(max_size=8),
    ),
)


class TestConfigText:
    def test_comments_blanks_and_values(self):
        flat = parse_config_text("# a comment\n\nn_phases = 4\ndiscovery.lambda = 8\n")
        assert flat == {"n_phases": "4", "discovery.lambda": "8"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("n_phases 4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("n_phases = 4\nn_phases = 5\n")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(CONFIG_LINES, st.text(max_size=12)), max_size=8).map("\n".join))
    def test_any_text_builds_a_config_or_raises_config_error(self, text):
        try:
            config = config_from_flat(parse_config_text(text))
        except ConfigError:
            pass
        else:
            assert isinstance(config, TrainingConfig)


class TestConfigFromFlat:
    def test_defaults_when_empty(self):
        config = config_from_flat({})
        assert config == TrainingConfig()
        assert config.discovery.fitness.alpha == 0.2
        assert config.composition.fitness.alpha == 0.5
        assert config.discovery.fitness.beta == 2.0

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown config key 'discovery.lamda'"):
            config_from_flat({"discovery.lamda": "8"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="invalid int"):
            config_from_flat({"n_phases": "4.5"})

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigError, match="invalid float"):
            config_from_flat({"ridge_lambda": "inf"})

    @pytest.mark.parametrize(
        "value", [1e400, -1e400, float("nan"), 10**400], ids=["1e400", "-1e400", "nan", "long-int"]
    )
    def test_non_finite_number_rejected(self, value):
        # Model files hand JSON numbers to the parser, not text.
        with pytest.raises(ConfigError, match="invalid float value .* for key 'beta'"):
            config_from_flat({"beta": value})

    def test_int_too_long_to_print_rejected(self):
        # ``repr`` of an int past Python's 4,300-digit limit itself raises.
        with pytest.raises(ConfigError, match="invalid float value <int of 16610 bits> for key 'ridge_lambda'"):
            config_from_flat({"ridge_lambda": 10**5000})

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="invalid bool"):
            config_from_flat({"early_stop": "maybe"})

    def test_constraint_violations_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="elitists"):
            config_from_flat(
                {"composition.elitists": "40", "composition.population_size": "32"}
            )
        with pytest.raises(ConfigError, match="alpha"):
            config_from_flat({"alpha_rule": "0"})

    def test_every_key_reaches_its_attribute(self):
        values = {
            "rng_seed": 3, "n_phases": 5, "ridge_lambda": 0.5, "early_stop": True, "alpha_rule": 0.3,
            "alpha_candidate": 0.7, "beta": 1.5, "discovery.lambda": 9, "discovery.delta": 4,
            "discovery.mutation_sigma": 0.07, "discovery.sigma_init": 0.2, "discovery.rules_per_phase": 3,
            "discovery.max_iter": 99, "composition.population_size": 20,
            "composition.tournament_k": 3, "composition.crossover_points": 3, "composition.crossover_prob": 0.8,
            "composition.mutation_rate": 0.1, "composition.elitists": 2, "composition.generations_per_phase": 7,
        }
        config = config_from_flat({key: str(value) for key, value in values.items()})
        assert config_to_flat(config) == values
        assert config.discovery.lambda_ == 9
        assert config.composition.fitness.alpha == 0.7
        # One beta serves both fitnesses.
        assert config.discovery.fitness.beta == config.composition.fitness.beta == 1.5

    def test_inner_parameter_sets_are_checked_first(self):
        # Each fitness before its stage, discovery before composition, the run last.
        flat = {"n_phases": "0", "composition.elitists": "40", "alpha_candidate": "0", "discovery.delta": "0", "alpha_rule": "0"}
        for key, message in [
            ("alpha_rule", "alpha must be positive"),
            ("discovery.delta", "delta must be at least 1"),
            ("alpha_candidate", "alpha must be positive"),
            ("composition.elitists", "elitists must lie in [0, population_size)"),
            ("n_phases", "n_phases must be at least 1"),
        ]:
            with pytest.raises(ConfigError) as excinfo:
                config_from_flat(flat)
            assert str(excinfo.value) == message
            del flat[key]
        config_from_flat(flat)

    def test_ridge_lambda_flows_into_discovery(self):
        config = config_from_flat({"ridge_lambda": "0.25"})
        assert config.discovery.ridge_lambda == 0.25
        assert config_to_flat(config)["ridge_lambda"] == 0.25

    def test_round_trip(self):
        config = config_from_flat(
            {
                "rng_seed": "11",
                "n_phases": "3",
                "alpha_rule": "0.3",
                "discovery.lambda": "9",
                "composition.mutation_rate": "0.125",
                "early_stop": "true",
            }
        )
        assert config_from_flat(config_to_flat(config)) == config
        assert config.discovery.lambda_ == 9
        assert config.composition.mutation_rate == 0.125
        assert config.early_stop is True

    def test_flatten_rejects_split_beta(self):
        # A config whose betas differ could not be saved, so it cannot be built.
        from rulemix import FitnessParams

        with pytest.raises(ValueError, match="beta"):
            TrainingConfig(discovery=DiscoveryParams(fitness=FitnessParams(alpha=0.2, beta=3.0)))
        assert config_to_flat(TrainingConfig())["beta"] == 2.0


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = write(tmp_path, "c.conf", "n_phases = 2\nrng_seed = 7\n")
        config = load_config(path)
        assert config.n_phases == 2
        assert config.rng_seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.conf"))

    def test_negative_rng_seed_rejected(self, tmp_path):
        path = write(tmp_path, "c.conf", "rng_seed = -5\n")
        with pytest.raises(ConfigError, match="rng_seed"):
            load_config(path)

    def test_byte_order_mark_before_first_key(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_bytes(b"\xef\xbb\xbfn_phases = 2\n")
        assert load_config(str(path)).n_phases == 2

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.conf"
        path.write_bytes(b"# caf\xe9\n")
        with pytest.raises(ConfigError, match="cannot read config .*latin1.conf"):
            load_config(str(path))


def test_readme_config_table_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    documented = [(key.strip().strip("`"), default.strip()) for key, default in rows]
    expected = [
        (key, str(value).lower() if isinstance(value, bool) else repr(value))
        for key, value in config_to_flat(TrainingConfig()).items()
    ]
    assert documented == expected
