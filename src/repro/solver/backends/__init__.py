"""Sweep-kernel backends (name table + selection policy).

The transport sweeps dispatch their inner segment loop through one of the
:class:`~repro.solver.backends.base.KernelBackend` objects of the table:

* ``numpy`` — the default vectorised kernel over precompiled sweep plans;
* ``reference`` — the seed lockstep loop, kept as equivalence oracle and
  benchmark baseline.

A backend is selected by name alone (the config's
``solver.sweep_backend``, default ``numpy``). An unknown name is an
error; nothing degrades silently.
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.solver.backends.base import KernelBackend, KernelTimings, SweepContext
from repro.solver.backends.numpy_backend import NumpySweepBackend, SweepWorkspace
from repro.solver.backends.plan import SweepPlan, TrackTopology, build_position_index
from repro.solver.backends.reference_backend import ReferenceSweepBackend

#: The backend of a solver built without one.
DEFAULT_BACKEND = "numpy"

#: Every backend, by its ``name``.
_REGISTRY: dict[str, KernelBackend] = {
    "numpy": NumpySweepBackend(),
    "reference": ReferenceSweepBackend(),
}


def backend_names() -> tuple[str, ...]:
    """The backend names."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by exact name (no fallback)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown sweep backend {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def resolve_backend(
    requested: str | KernelBackend | None = None,
) -> KernelBackend:
    """The sweep kernel named ``requested`` (an instance passes through);
    ``None`` means :data:`DEFAULT_BACKEND`."""
    if isinstance(requested, KernelBackend):
        return requested
    return get_backend((requested or DEFAULT_BACKEND).strip().lower())


__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "KernelTimings",
    "SweepContext",
    "SweepPlan",
    "SweepWorkspace",
    "TrackTopology",
    "backend_names",
    "build_position_index",
    "get_backend",
    "resolve_backend",
]
