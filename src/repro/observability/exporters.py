"""Report exporters: the only door run metrics leave the process through.

Every serialised metric in the repository — run reports from the CLI and
examples, benchmark records, worker stdout protocols — goes through this
module. That single-door rule is enforced by the ``raw-metrics-dump``
analysis rule: ``json.dump``/``json.dumps`` of run metrics anywhere else
in ``repro.*`` or ``benchmarks.*`` is a lint failure. Centralising the
serialisation is what makes the golden-record suite trustworthy: there is
exactly one spelling of every report, so a diff between two files is a
diff between two runs.

Three exporters sit in one literal name table, obeying the
registry-hygiene rules (literal ``name`` attributes, fail-fast lookup):

* ``json``  — the canonical single-document report (goldens, diffs);
* ``jsonl`` — an append-friendly event stream (one event per line);
* ``text``  — the human table, including the classic ``k-effective``
  lines the CLI has always printed.

Selection is ``--report`` argument > ``output.report`` config field >
no report.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigError, ObservabilityError
from repro.observability.record import REPORT_KIND, SCHEMA_VERSION, RunReport
from repro.observability.spans import Span

#: Suffix -> format inference for bare-path report specs.
_SUFFIX_FORMATS = {".json": "json", ".jsonl": "jsonl"}


# ---------------------------------------------------------------------------
# Serialisation primitives (the single JSON door).
# ---------------------------------------------------------------------------

def dump_record(record: Mapping[str, Any] | list, indent: int | None = None) -> str:
    """Canonical JSON spelling of a metrics record (stable key order)."""
    return json.dumps(record, indent=indent, sort_keys=False)


def parse_record(text: str) -> Any:
    """Inverse of :func:`dump_record`, with a library-typed error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"malformed metrics record: {exc}") from None


def read_record(path: str | Path) -> Any:
    try:
        return parse_record(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ObservabilityError(f"cannot read record {path}: {exc}") from None


def write_record(path: str | Path, record: Mapping[str, Any] | list) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_record(record, indent=2) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Exporters.
# ---------------------------------------------------------------------------

class Exporter(ABC):
    """Writes a :class:`RunReport` to a path in one concrete format."""

    #: Exporter-table key; concrete exporters declare a string literal.
    name: str = ""

    #: Suffix used when the report spec names a format but no path.
    default_suffix: str = ".txt"

    @abstractmethod
    def render(self, report: RunReport) -> str:
        """The full file content for ``report``."""

    def export(self, report: RunReport, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render(report), encoding="utf-8")
        return path


class JsonExporter(Exporter):
    """Single-document canonical report — the golden/diff format."""

    name = "json"
    default_suffix = ".json"

    def render(self, report: RunReport) -> str:
        return dump_record(report.to_dict(), indent=2) + "\n"


class JsonlExporter(Exporter):
    """Event-stream report: one JSON object per line, append-friendly."""

    name = "jsonl"
    default_suffix = ".jsonl"

    def render(self, report: RunReport) -> str:
        payload = report.to_dict()
        events: list[dict[str, Any]] = [{
            "event": "begin",
            "kind": payload["kind"],
            "schema_version": payload["schema_version"],
            "manifest": payload["manifest"],
        }]
        events.extend(
            {"event": "stage", "name": name, "seconds": seconds}
            for name, seconds in payload["stages"].items()
        )
        events.extend(
            {"event": "counter", "name": name, "value": value}
            for name, value in payload["counters"].items()
        )

        def span_events(span: Mapping[str, Any], prefix: str) -> list[dict[str, Any]]:
            path = f"{prefix}/{span['name']}" if prefix else span["name"]
            rows = [{"event": "span", "path": path, "seconds": span["seconds"]}]
            for child in span.get("children", ()):
                rows.extend(span_events(child, path))
            return rows

        for span in payload["spans"]:
            events.extend(span_events(span, ""))
        events.append({"event": "end", "results": payload["results"]})
        return "".join(dump_record(event) + "\n" for event in events)


class TextExporter(Exporter):
    """Human-readable table, preserving the classic ``k-effective`` lines."""

    name = "text"
    default_suffix = ".log"

    def render(self, report: RunReport) -> str:
        manifest = report.manifest
        results = report.results
        lines = [
            "=== run manifest ===",
            f"geometry     : {manifest.geometry}",
            f"engine       : {manifest.engine}",
            f"backend      : {manifest.backend}",
            f"storage      : {manifest.storage_method}",
            f"config hash  : {manifest.config_hash[:16]}",
            f"git revision : {manifest.git_rev[:16]}",
            "",
            "=== results ===",
            f"k-effective  : {results.keff:.6f}",
            f"converged    : {results.converged}",
            f"iterations   : {results.num_iterations}",
        ]
        counters = report.counters.to_dict()
        if counters:
            lines += ["", "=== counters ==="]
            width = max(len(name) for name in counters)
            lines += [f"{name.ljust(width)} : {value}" for name, value in counters.items()]
        if report.stages:
            lines += ["", "=== stages ==="]
            width = max(len(name) for name in report.stages)
            lines += [
                f"{name.ljust(width)} : {seconds:10.6f} s"
                for name, seconds in report.stages.items()
            ]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exporter table.
# ---------------------------------------------------------------------------

#: Every exporter, by its ``name``.
_REGISTRY: dict[str, Exporter] = {
    "json": JsonExporter(),
    "jsonl": JsonlExporter(),
    "text": TextExporter(),
}


def exporter_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def resolve_exporter(name: str) -> Exporter:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown report format {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# Report specs and high-level IO.
# ---------------------------------------------------------------------------

def parse_report_spec(spec: str) -> tuple[str, Path | None]:
    """Split a report spec into ``(format, path | None)``.

    Accepted spellings: a bare format (``json``), ``format:path``
    (``json:out/run.json``), or a bare path whose suffix picks the format
    (``run.jsonl`` -> jsonl; unknown suffixes -> text, preserving the
    historic ``--report run.log`` behaviour).
    """
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty report spec")
    if spec in _REGISTRY:
        return spec, None
    head, sep, tail = spec.partition(":")
    if sep and head in _REGISTRY:
        if not tail:
            raise ConfigError(f"report spec {spec!r} names a format but an empty path")
        return head, Path(tail)
    path = Path(spec)
    return _SUFFIX_FORMATS.get(path.suffix, "text"), path


def resolve_report_spec(
    cli_value: str | None = None,
    config_value: str | None = None,
) -> tuple[str, Path | None] | None:
    """Selection policy: CLI argument > config field > none."""
    spec = cli_value or config_value
    return parse_report_spec(spec) if spec else None


def write_report(
    report: RunReport,
    spec: str | tuple[str, Path | None],
    default_dir: str | Path = ".",
    stem: str = "run-report",
) -> Path:
    """Export ``report`` per ``spec``; returns the path written."""
    fmt, path = parse_report_spec(spec) if isinstance(spec, str) else spec
    exporter = resolve_exporter(fmt)
    if path is None:
        path = Path(default_dir) / f"{stem}{exporter.default_suffix}"
    return exporter.export(report, path)


def _report_from_events(lines: list[str], path: Path) -> RunReport:
    manifest_payload: Mapping[str, Any] | None = None
    results_payload: Mapping[str, Any] | None = None
    version: int | None = None
    stages: dict[str, float] = {}
    counters: dict[str, int] = {}
    span_rows: list[tuple[str, float | None]] = []
    for line in lines:
        event = parse_record(line)
        if not isinstance(event, dict) or "event" not in event:
            raise ObservabilityError(f"{path}: malformed event line {line!r}")
        kind = event["event"]
        if kind == "begin":
            if event.get("kind") != REPORT_KIND:
                raise ObservabilityError(f"{path}: not a run-report stream")
            version = event.get("schema_version")
            manifest_payload = event.get("manifest", {})
        elif kind == "stage":
            stages[str(event["name"])] = float(event["seconds"])
        elif kind == "counter":
            counters[str(event["name"])] = int(event["value"])
        elif kind == "span":
            seconds = event["seconds"]
            span_rows.append(
                (str(event["path"]), None if seconds is None else float(seconds))
            )
        elif kind == "end":
            results_payload = event.get("results", {})
        else:
            raise ObservabilityError(f"{path}: unknown event kind {kind!r}")
    if manifest_payload is None or results_payload is None:
        raise ObservabilityError(f"{path}: truncated event stream (no begin/end)")

    roots: list[Span] = []
    for span_path, seconds in span_rows:
        level = roots
        node: Span | None = None
        for part in span_path.split("/"):
            node = next((s for s in level if s.name == part), None)
            if node is None:
                node = Span(name=part)
                level.append(node)
            level = node.children
        assert node is not None
        node.seconds = seconds

    return RunReport.from_dict({
        "schema_version": version,
        "kind": REPORT_KIND,
        "manifest": manifest_payload,
        "results": results_payload,
        "counters": counters,
        "stages": stages,
        "spans": [root.to_dict() for root in roots],
    })


def load_report(path: str | Path) -> RunReport:
    """Load a report written by any exporter (sniffs json vs jsonl)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ObservabilityError(f"cannot read report {path}: {exc}") from None
    stripped = text.strip()
    if not stripped:
        raise ObservabilityError(f"empty report file {path}")
    try:
        payload = json.loads(stripped)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        return RunReport.from_dict(payload)
    lines = [line for line in stripped.splitlines() if line.strip()]
    if all(line.lstrip().startswith("{") for line in lines):
        return _report_from_events(lines, path)
    raise ObservabilityError(
        f"{path} is neither a JSON report nor a JSONL event stream "
        "(text reports are for humans and cannot be loaded back)"
    )
