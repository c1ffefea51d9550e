"""Unified observability: run manifests, spans, counters, exporters.

ANT-MOC's evaluation (Figures 9-12, Tables 2-4) is driven entirely by
per-stage timings, per-GPU memory footprints, communication volumes and
load-uniformity indices scraped from run logs — observability *is* the
experiment. This package is the single structured channel every layer
reports through:

* :class:`~repro.observability.manifest.RunManifest` — what ran (config
  hash, git revision, engine/backend selections, host info);
* :class:`~repro.observability.spans.SpanRecorder` — nested monotone-clock
  spans with parent/child integrity (subsuming the flat ``StageTimer``
  rows, which remain the collection mechanism);
* :class:`~repro.observability.counters.CounterSet` — typed counters for
  the paper's workload terms (tracks laid down, segments swept, halo
  bytes, allreduce calls, ...), with associative/commutative merge;
* :mod:`~repro.observability.exporters` — the table of report writers
  (``json`` file, ``jsonl`` event stream, human ``text`` table) and the
  *only* module allowed to serialise run metrics to JSON (enforced by the
  ``raw-metrics-dump`` rule of :mod:`repro.analysis`);
* :mod:`~repro.observability.diff` — tolerance-gated report comparison,
  the building block of ``python -m repro.report diff``.

Hard invariant: observability is passive. Numeric results (k-eff, flux)
are bitwise identical with reporting enabled or disabled — recorders only
*read* solver state, never perturb it (pinned by
``tests/observability/test_bitwise_neutrality.py``).
"""

from __future__ import annotations

from repro.observability.counters import COUNTER_SCHEMA, CounterSet
from repro.observability.manifest import RunManifest
from repro.observability.observe import Observation
from repro.observability.record import SCHEMA_VERSION, RunReport
from repro.observability.spans import Span, SpanRecorder, validate_span_tree

__all__ = [
    "COUNTER_SCHEMA",
    "CounterSet",
    "Observation",
    "RunManifest",
    "RunReport",
    "SCHEMA_VERSION",
    "Span",
    "SpanRecorder",
    "validate_span_tree",
]
