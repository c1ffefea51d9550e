"""Unit tests for exporters: registry, spec parsing, render/load round trips."""

import pytest

from repro.errors import ConfigError, ObservabilityError
from repro.observability.exporters import (
    Exporter,
    dump_record,
    exporter_names,
    load_report,
    parse_record,
    parse_report_spec,
    read_record,
    register_exporter,
    resolve_exporter,
    resolve_report_spec,
    write_record,
    write_report,
)
from tests.observability.test_record import make_report


class TestRecordPrimitives:
    def test_dump_parse_round_trip(self):
        record = {"case": "quick", "ratios": {"speedup": 1.5}}
        assert parse_record(dump_record(record)) == record

    def test_parse_malformed_rejected(self):
        with pytest.raises(ObservabilityError, match="malformed metrics record"):
            parse_record("{nope")

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "record.json"
        write_record(path, {"a": 1})
        assert read_record(path) == {"a": 1}

    def test_read_missing_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read record"):
            read_record(tmp_path / "absent.json")


class TestRegistry:
    def test_builtin_names(self):
        assert exporter_names() == ("json", "jsonl", "text")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="unknown report format"):
            resolve_exporter("xml")

    def test_nameless_exporter_rejected(self):
        class Nameless(Exporter):
            def render(self, report):
                return ""

        with pytest.raises(ObservabilityError, match="declares no name"):
            register_exporter(Nameless())


class TestReportSpec:
    def test_bare_format(self):
        assert parse_report_spec("json") == ("json", None)

    def test_format_and_path(self):
        fmt, path = parse_report_spec("jsonl:out/run.jsonl")
        assert fmt == "jsonl"
        assert str(path) == "out/run.jsonl"

    def test_bare_path_suffix_inference(self):
        assert parse_report_spec("run.json")[0] == "json"
        assert parse_report_spec("run.jsonl")[0] == "jsonl"
        assert parse_report_spec("run.log")[0] == "text"

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError, match="empty report spec"):
            parse_report_spec("   ")

    def test_format_with_empty_path_rejected(self):
        with pytest.raises(ConfigError, match="empty path"):
            parse_report_spec("json:")

    def test_precedence_cli_config_env(self, monkeypatch):
        """The CLI beats the config; the environment ranks below both, and
        below no report at all: ``REPRO_REPORT`` is never read."""
        monkeypatch.setenv("REPRO_REPORT", "env.jsonl")
        assert resolve_report_spec("cli.json", "config.log")[0] == "json"
        assert resolve_report_spec(None, "config.log")[0] == "text"
        assert resolve_report_spec(None, None) is None


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["json", "jsonl"])
    def test_write_then_load(self, fmt, tmp_path, manifest):
        report = make_report(manifest)
        path = write_report(report, fmt, default_dir=tmp_path)
        assert path.parent == tmp_path
        loaded = load_report(path)
        assert loaded.results.keff.hex() == report.results.keff.hex()
        assert loaded.counters == report.counters
        assert loaded.stages == pytest.approx(report.stages)

    def test_text_render_has_classic_lines(self, manifest):
        text = resolve_exporter("text").render(make_report(manifest))
        assert "k-effective" in text
        assert "=== run manifest ===" in text
        assert "fsr_count" in text

    def test_text_report_cannot_load_back(self, tmp_path, manifest):
        path = write_report(make_report(manifest), f"text:{tmp_path}/run.log")
        with pytest.raises(ObservabilityError, match="for humans"):
            load_report(path)

    def test_jsonl_preserves_span_tree(self, tmp_path, manifest):
        from repro.observability import Span

        report = make_report(
            manifest,
            spans=[Span("solve", 2.0, children=[Span("sweep", 1.0)]),
                   Span("workers", None, children=[Span("worker-0", 0.5)])],
        )
        loaded = load_report(write_report(report, f"jsonl:{tmp_path}/run.jsonl"))
        assert loaded.spans == report.spans

    def test_load_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ObservabilityError, match="empty report"):
            load_report(path)

    def test_load_missing_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read report"):
            load_report(tmp_path / "absent.json")
