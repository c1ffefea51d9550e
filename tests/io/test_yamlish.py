"""Tests for the YAML-subset config parser."""

import pytest

from repro.errors import ConfigError
from repro.io import yamlish
from repro.io.yamlish import loads, parse_scalar


class TestScalars:
    def test_int(self):
        assert parse_scalar("42") == 42
        assert parse_scalar("-7") == -7
        assert parse_scalar("+3") == 3

    def test_float(self):
        assert parse_scalar("1.5") == 1.5
        assert parse_scalar("6.144e9") == 6.144e9
        assert parse_scalar("-1E-3") == -1e-3
        assert parse_scalar(".5") == 0.5

    def test_exponent_without_dot_is_a_float(self):
        """The reason this parser is kept over PyYAML, which reads YAML
        1.1's dotless ``1e-3`` as a string."""
        value = parse_scalar("1e-3")
        assert type(value) is float
        assert value == 1e-3

    def test_bool(self):
        assert parse_scalar("true") is True
        assert parse_scalar("False") is False
        assert parse_scalar("yes") is True
        assert parse_scalar("off") is False

    def test_null(self):
        assert parse_scalar("null") is None
        assert parse_scalar("~") is None
        assert parse_scalar("") is None

    def test_quoted_strings_keep_type(self):
        assert parse_scalar('"42"') == "42"
        assert parse_scalar("'true'") == "true"

    def test_bare_string(self):
        assert parse_scalar("c5g7") == "c5g7"


class TestMappings:
    def test_flat_mapping(self):
        assert loads("a: 1\nb: two\n") == {"a": 1, "b": "two"}

    def test_nested_mapping(self):
        doc = "solver:\n  max_iterations: 100\n  storage_method: MANAGER\n"
        assert loads(doc) == {
            "solver": {"max_iterations": 100, "storage_method": "MANAGER"}
        }

    def test_deeply_nested(self):
        doc = "a:\n  b:\n    c:\n      d: 1\n"
        assert loads(doc) == {"a": {"b": {"c": {"d": 1}}}}

    def test_empty_value_is_none(self):
        assert loads("key:\n") == {"key": None}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            loads("a: 1\na: 2\n")

    def test_missing_colon_rejected(self):
        with pytest.raises(ConfigError, match="key: value"):
            loads("just a line\n")

    def test_quoted_key(self):
        assert loads('"my key": 3\n') == {"my key": 3}


class TestSequences:
    def test_block_sequence(self):
        assert loads("- 1\n- 2\n- three\n") == [1, 2, "three"]

    def test_sequence_under_key(self):
        doc = "items:\n  - 1\n  - 2\n"
        assert loads(doc) == {"items": [1, 2]}

    def test_sequence_of_mappings(self):
        doc = "jobs:\n  - name: a\n    gpus: 4\n  - name: b\n    gpus: 8\n"
        assert loads(doc) == {
            "jobs": [{"name": "a", "gpus": 4}, {"name": "b", "gpus": 8}]
        }

    def test_empty_dash_is_none(self):
        assert loads("- \n- 2\n") == [None, 2]


class TestInline:
    def test_inline_list(self):
        assert loads("grid: [2, 2, 2]\n") == {"grid": [2, 2, 2]}

    def test_inline_mapping(self):
        assert loads("point: {x: 1.0, y: -2}\n") == {"point": {"x": 1.0, "y": -2}}

    def test_nested_inline(self):
        assert loads("m: {a: [1, 2], b: {c: 3}}\n") == {
            "m": {"a": [1, 2], "b": {"c": 3}}
        }

    def test_inline_list_with_quoted_comma(self):
        assert loads('names: ["a,b", c]\n') == {"names": ["a,b", "c"]}

    def test_unterminated_inline_rejected(self):
        with pytest.raises(ConfigError):
            loads("bad: [1, 2\n")


class TestCommentsAndWhitespace:
    def test_comments_stripped(self):
        doc = "# header\na: 1  # trailing\n\n# middle\nb: 2\n"
        assert loads(doc) == {"a": 1, "b": 2}

    def test_hash_inside_quotes_kept(self):
        assert loads("s: 'a#b'\n") == {"s": "a#b"}

    def test_empty_document(self):
        assert loads("") == {}
        assert loads("\n# only comments\n") == {}

    def test_tabs_rejected(self):
        with pytest.raises(ConfigError, match="tabs"):
            loads("a:\n\tb: 1\n")


class TestUnsupportedFeatures:
    def test_anchor_rejected(self):
        with pytest.raises(ConfigError, match="unsupported"):
            loads("a: &anchor 1\n")

    def test_multiline_scalar_rejected(self):
        with pytest.raises(ConfigError, match="unsupported"):
            loads("a: |\n  text\n")


class TestFileLoading:
    def test_load_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("geometry: c5g7\nsolver:\n  max_iterations: 5\n")
        assert yamlish.load_file(path) == {
            "geometry": "c5g7",
            "solver": {"max_iterations": 5},
        }

    def test_antmoc_style_config(self):
        """A config shaped like the artifact's config.yaml parses whole."""
        doc = """
geometry: c5g7
tracking:
  num_azim: 4        # Table 4
  num_polar: 4
  azim_spacing: 0.5
  polar_spacing: 0.1
decomposition:
  nx: 2
  ny: 2
  nz: 2
solver:
  storage_method: MANAGER
  resident_memory_bytes: 6144000000
"""
        data = loads(doc)
        assert data["decomposition"] == {"nx": 2, "ny": 2, "nz": 2}
        assert data["solver"]["resident_memory_bytes"] == 6144000000
