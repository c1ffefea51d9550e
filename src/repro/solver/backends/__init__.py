"""Pluggable sweep-kernel backends (registry + selection policy).

The transport sweeps dispatch their inner segment loop through one of the
registered :class:`~repro.solver.backends.base.KernelBackend` objects:

* ``numpy`` — the default vectorised kernel over precompiled sweep plans;
* ``reference`` — the seed lockstep loop, kept as equivalence oracle and
  benchmark baseline.

Selection order: explicit argument, then the ``REPRO_SWEEP_BACKEND``
environment variable, then the solver-config default. ``auto`` (the
config default, so the environment variable can apply) means ``numpy``.
An unknown name is an error; nothing degrades silently.
"""

from __future__ import annotations

import os

from repro.errors import SolverError
from repro.solver.backends.base import KernelBackend, KernelTimings, SweepContext
from repro.solver.backends.numpy_backend import NumpySweepBackend, SweepWorkspace, lockstep
from repro.solver.backends.plan import SweepPlan, TrackTopology, build_position_index
from repro.solver.backends.reference_backend import ReferenceSweepBackend

#: Environment override consulted when no backend is requested explicitly.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: Default backend when nothing is configured anywhere.
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend to the registry (last registration wins per name)."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(NumpySweepBackend())
register_backend(ReferenceSweepBackend())


def backend_names() -> tuple[str, ...]:
    """Registered backend names plus the ``auto`` selector."""
    return ("auto",) + tuple(sorted(_REGISTRY))


def available_backends() -> dict[str, bool]:
    """Name -> importable/runnable in this process."""
    return {name: b.is_available() for name, b in sorted(_REGISTRY.items())}


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by exact name (no fallback)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown sweep backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def resolve_backend(
    requested: str | KernelBackend | None = None,
) -> KernelBackend:
    """Select the sweep kernel: argument > env var > default. ``None``,
    ``""`` and ``"auto"`` all mean "not requested"."""
    if isinstance(requested, KernelBackend):
        return requested
    name = (requested or "auto").strip().lower()
    if name == "auto":
        name = os.environ.get(BACKEND_ENV_VAR, "").strip().lower() or "auto"
    return get_backend(DEFAULT_BACKEND if name == "auto" else name)


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "KernelTimings",
    "SweepContext",
    "SweepPlan",
    "SweepWorkspace",
    "TrackTopology",
    "available_backends",
    "backend_names",
    "build_position_index",
    "get_backend",
    "lockstep",
    "register_backend",
    "resolve_backend",
]
