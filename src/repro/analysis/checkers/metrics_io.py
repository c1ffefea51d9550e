"""Metrics-IO checker: run metrics leave the process through one door.

The golden-record suite and ``python -m repro.report diff`` only work
because every serialised metric in the repository has exactly one
spelling — the one produced by :mod:`repro.observability.exporters`. A
stray ``json.dumps(record)`` in a benchmark or a solver module silently
forks the format (different key order, different float spelling, no
schema version) and the diff tooling stops being evidence.

One rule:

* ``raw-metrics-dump`` — no ``json.dump``/``json.dumps`` calls in
  ``repro.*`` or ``benchmarks.*`` modules. Run reports go through an
  :class:`~repro.observability.exporters.Exporter`; ad-hoc records
  (benchmark cases, worker stdout protocols) go through
  ``dump_record``/``write_record``.

Exempt by construction: ``repro.observability.exporters`` itself (the
single door) and ``repro.analysis.*`` (lint output is tooling metadata,
not run metrics). Anything else that genuinely serialises non-metrics
JSON documents the exception with ``# repro: ignore[raw-metrics-dump]``
on the call line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.analysis.checkers.common import import_aliases, resolve_call
from repro.analysis.core import Finding, SourceFile, register_checker
from repro.analysis.visitor import Ancestors, VisitorChecker

#: Serialisation entry points (canonical names after alias expansion).
DUMP_CALLS = frozenset({"json.dump", "json.dumps"})

#: The single door; never flagged.
EXPORTER_MODULE = "repro.observability.exporters"

#: Packages whose JSON output is tooling metadata, not run metrics.
EXEMPT_PACKAGES = ("repro.analysis",)

#: Top-level package anchors whose modules the rule covers.
COVERED_ANCHORS = ("repro", "benchmarks")


def _anchored_module(path: str) -> str | None:
    """Dotted module anchored at ``repro`` or ``benchmarks`` (else None)."""
    parts = Path(path).with_suffix("").parts
    for anchor in COVERED_ANCHORS:
        if anchor in parts:
            return ".".join(parts[parts.index(anchor):])
    return None


class MetricsIoChecker(VisitorChecker):
    name = "metrics-io"
    rules = {
        "raw-metrics-dump": (
            "json.dump/json.dumps outside repro.observability.exporters; "
            "serialised metrics must go through the exporter registry so "
            "every record has one canonical, diffable spelling"
        ),
    }

    def start_file(self, src: SourceFile) -> bool:
        module = _anchored_module(src.path)
        if module is None or module == EXPORTER_MODULE:
            return False
        if any(
            module == pkg or module.startswith(f"{pkg}.") for pkg in EXEMPT_PACKAGES
        ):
            return False
        self._module = module
        self._aliases = import_aliases(src.tree)
        return True

    def visit_Call(
        self, src: SourceFile, node: ast.Call, ancestors: Ancestors
    ) -> Iterable[Finding]:
        target = resolve_call(node, self._aliases)
        if target in DUMP_CALLS:
            yield self.finding(
                src, node, "raw-metrics-dump",
                f"direct {target}() in {self._module}; write metrics through "
                "repro.observability.exporters (dump_record / write_record "
                "or an Exporter)",
            )


register_checker(MetricsIoChecker())
