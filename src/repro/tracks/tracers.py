"""Pluggable 2D tracers (registry + selection policy).

Mirrors the sweep-backend registry in :mod:`repro.solver.backends`: the
track generators dispatch 2D segmentation through one of the registered
tracer callables:

* ``batch`` — the default wavefront tracer over the flat geometry view's
  batched kernels (:func:`~repro.tracks.raytrace2d.trace_all_wavefront`);
* ``reference`` — the seed scalar walker, kept as equivalence oracle and
  benchmark baseline (:func:`~repro.tracks.raytrace2d.trace_all_reference`).

A tracer is selected by name alone (the config's ``tracking.tracer``,
default ``batch``). Both tracers implement identical segmentation
semantics; their outputs are bit-identical (property-tested in
``tests/properties``).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TrackingError
from repro.tracks.raytrace2d import trace_all_reference, trace_all_wavefront
from repro.tracks.segments import SegmentData

#: Tracer signature: ``(geometry, TrackTable2D) -> SegmentData``.
Tracer = Callable[..., SegmentData]

#: The tracer of a generator built without one.
DEFAULT_TRACER = "batch"

_REGISTRY: dict[str, Tracer] = {}


def register_tracer(name: str, tracer: Tracer) -> Tracer:
    """Add a tracer to the registry (last registration wins per name)."""
    _REGISTRY[name] = tracer
    return tracer


register_tracer("batch", trace_all_wavefront)
register_tracer("reference", trace_all_reference)


def tracer_names() -> tuple[str, ...]:
    """Registered tracer names."""
    return tuple(sorted(_REGISTRY))


def get_tracer(name: str) -> Tracer:
    """Look up a tracer by exact name (no fallback)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise TrackingError(
            f"unknown tracer {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def resolve_tracer(requested: str | None = None) -> str:
    """The registered tracer name ``requested`` names; ``None`` means
    :data:`DEFAULT_TRACER`."""
    name = (requested or DEFAULT_TRACER).strip().lower()
    if name not in _REGISTRY:
        raise TrackingError(
            f"unknown tracer {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return name


__all__ = [
    "DEFAULT_TRACER",
    "Tracer",
    "get_tracer",
    "register_tracer",
    "resolve_tracer",
    "tracer_names",
]
