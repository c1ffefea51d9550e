"""Span recording for the traced run of the end-to-end ledger.

The untraced run carries no instrumentation beyond the documented
``stage_hook``. The traced run installs timing wrappers, from this file
only, on the public callables listed in :data:`SPAN_TABLE`; nothing in
``src/`` knows about them. A span is a dict ``{name, start, end, parent,
op}``: ``parent`` is the index of the enclosing span in the same list (or
``None`` for a root) and ``op`` the operation the span belongs to.

A layer's *self time* is its span's duration minus the durations of its
direct children, so the self times of a span tree sum to the duration of
its root, and the roots plus the gaps between them sum to the wall-clock.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

#: Span name -> dotted path (``module:qualified.name``) of the public
#: callable the traced run wraps. ``[]`` wraps every value of a mapping.
#: One name may cover several callables (2D/3D/batched variants of one
#: layer boundary); nested spans of one name are fine — self times add up.
SPAN_TABLE: tuple[tuple[str, str], ...] = (
    ("io.load_config", "repro.io.config:load_config"),
    ("geometry.build", "repro.runtime.antmoc:GEOMETRY_BUILDERS[]"),
    ("tracks.generate", "repro.tracks.generator:TrackGenerator.generate"),
    ("tracks.generate", "repro.tracks.generator:TrackGenerator3D.generate"),
    ("tracks.cache_load", "repro.tracks.cache:TrackingCache.load"),
    ("tracks.cache_store", "repro.tracks.cache:TrackingCache.store"),
    ("trackmgmt.build", "repro.trackmgmt.strategy:make_strategy"),
    ("trackmgmt.regen", "repro.trackmgmt.strategy:ExplicitStorage.sweep"),
    ("trackmgmt.regen", "repro.trackmgmt.strategy:OnTheFlyStorage.sweep"),
    ("trackmgmt.regen", "repro.trackmgmt.manager:ManagedStorage.sweep"),
    ("trackmgmt.regen", "repro.trackmgmt.ccm_storage:CCMStorage.sweep"),
    ("solver.build", "repro.solver.solver:MOCSolver.for_2d"),
    ("solver.build", "repro.solver.solver:MOCSolver.for_3d"),
    ("solver.build", "repro.solver.source:SourceTerms.__init__"),
    ("solver.build", "repro.solver.sweep2d:TransportSweep2D.__init__"),
    ("solver.build", "repro.solver.sweep3d:TransportSweep3D.__init__"),
    ("solver.build", "repro.solver.backends.plan:SweepPlan.__init__"),
    ("solver.build", "repro.scenario.batched:BatchedSweep2D.__init__"),
    ("parallel.build", "repro.parallel.driver3d:ZDecomposedSolver.__init__"),
    ("cmfd.setup", "repro.solver.cmfd:build_coarse_mesh"),
    ("cmfd.setup", "repro.solver.cmfd:bin_fsrs"),
    ("cmfd.setup", "repro.solver.cmfd:bin_fsrs_3d"),
    ("cmfd.setup", "repro.solver.cmfd:local_exit_destinations"),
    ("cmfd.setup", "repro.solver.cmfd:traversal_entry_cells"),
    ("cmfd.setup", "repro.solver.cmfd:CurrentTally.__init__"),
    ("cmfd.setup", "repro.solver.cmfd:CmfdProblem.__init__"),
    ("cmfd.setup", "repro.solver.cmfd:CmfdProblem.finalize_pairs"),
    ("solver.loop", "repro.solver.keff:KeffSolver.solve"),
    ("solver.loop", "repro.scenario.batched:BatchedKeffSolver.solve"),
    ("solver.source", "repro.solver.source:SourceTerms.reduced_source"),
    ("solver.sweep", "repro.solver.sweep2d:TransportSweep2D.sweep"),
    ("solver.sweep", "repro.solver.sweep3d:TransportSweep3D.sweep"),
    ("solver.sweep", "repro.scenario.batched:BatchedSweep2D.sweep"),
    ("solver.finalize", "repro.solver.sweep2d:TransportSweep2D.finalize_scalar_flux"),
    ("solver.finalize", "repro.solver.sweep3d:TransportSweep3D.finalize_scalar_flux"),
    ("solver.finalize", "repro.scenario.batched:BatchedSweep2D.finalize_state"),
    ("cmfd.apply", "repro.solver.cmfd:CmfdAccelerator.apply"),
    ("cmfd.apply", "repro.solver.cmfd:apply_engine_cmfd"),
    ("cmfd.apply", "repro.solver.cmfd:CmfdProblem.solve"),
    ("engine.solve", "repro.parallel.driver3d:ZDecomposedSolver.solve"),
    ("io.report_write", "repro.observability.exporters:write_report"),
    ("serve.request", "repro.serve.client:ServeClient.solve"),
)

#: Constructors whose instances the traced child keeps, to read array
#: sizes (plan bytes, group and polar counts) once the run is over.
KEPT_INSTANCES = (
    "repro.solver.backends.plan:SweepPlan.__init__",
    "repro.solver.source:SourceTerms.__init__",
)


def now() -> float:
    """The system-wide monotonic clock: stamps taken in the parent and in
    its children are on one axis."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb(pid: int | str = "self") -> int:
    """Peak resident set (``VmHWM``) of a live process's current image.

    ``wait4``'s ``ru_maxrss`` cannot serve: a child spawned by ``vfork``
    inherits the *parent's* high-water mark through ``exec``, so it reads
    the harness's peak whenever that exceeds the child's own.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class SpanError(ValueError):
    """A span list that is not a forest (orphans, negative durations)."""


class Recorder:
    """In-memory span list with the open-span stack of one thread."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.kept: list[Any] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": now(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
            }
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = now()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        """``fn`` timed as a span called ``name``; ``keep`` also retains
        the first positional argument (``self`` of a constructor)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                if keep:
                    self.kept.append(args[0])

        return traced


def _resolve(path: str) -> tuple[Any, str, Any]:
    """``module:a.b`` -> (owner object, attribute name, raw attribute)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def install(recorder: Recorder) -> None:
    """Wrap every callable of :data:`SPAN_TABLE`.

    Module-level functions are also replaced wherever a loaded ``repro``
    module (or ``__main__``) imported them by name, so ``from x import f``
    call sites are timed too.
    """
    for name, path in SPAN_TABLE:
        keep = path in KEPT_INSTANCES
        if path.endswith("[]"):
            owner, attr, mapping = _resolve(path[:-2])
            for key, fn in list(mapping.items()):
                mapping[key] = recorder.wrap(name, fn)
            continue
        owner, attr, raw = _resolve(path)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__, keep)))
        elif isinstance(owner, type):
            setattr(owner, attr, recorder.wrap(name, raw, keep))
        else:
            replacement = recorder.wrap(name, raw, keep)
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "__main__" or module_name.split(".")[0] == "repro"
                ):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, alias, replacement)


# ---------------------------------------------------------------------------
# Span-forest arithmetic (pure; the harness self-tests pin it).
# ---------------------------------------------------------------------------

def validate_forest(spans: list[dict[str, Any]]) -> None:
    """Raise :class:`SpanError` unless ``spans`` is a well-formed forest:
    every span closed, no negative duration, every parent an earlier span
    of the same operation that encloses its child."""
    for index, span in enumerate(spans):
        if span.get("end") is None:
            raise SpanError(f"span {index} ({span['name']}) was never closed")
        if span["end"] < span["start"]:
            raise SpanError(f"span {index} ({span['name']}) has a negative duration")
        parent = span.get("parent")
        if parent is None:
            continue
        if not isinstance(parent, int) or not 0 <= parent < index:
            raise SpanError(f"span {index} ({span['name']}) is an orphan (parent {parent!r})")
        outer = spans[parent]
        if outer.get("op") != span.get("op"):
            raise SpanError(f"span {index} ({span['name']}) crosses operations")
        if span["start"] < outer["start"] or span["end"] > outer["end"]:
            raise SpanError(f"span {index} ({span['name']}) escapes its parent {outer['name']}")


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Per-span self time: duration minus the direct children's durations."""
    validate_forest(spans)
    result = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            result[span["parent"]] -= span["end"] - span["start"]
    return result


def self_time_by_name(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self time summed per span name — the per-layer seconds."""
    totals: dict[str, float] = {}
    for span, seconds in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
    return totals


def covered_seconds(spans: list[dict[str, Any]]) -> float:
    """Length of the union of the root spans' intervals: the wall-clock a
    named layer accounts for (roots of concurrent operations may overlap,
    so this is a union, not a sum)."""
    intervals = sorted(
        (span["start"], span["end"]) for span in spans if span["parent"] is None
    )
    covered = 0.0
    reach = float("-inf")
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered
