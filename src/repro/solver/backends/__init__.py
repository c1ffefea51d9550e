"""Pluggable sweep-kernel backends (registry + selection policy).

The transport sweeps dispatch their inner segment loop through one of the
registered :class:`~repro.solver.backends.base.KernelBackend` objects:

* ``numpy`` — the default vectorised kernel over precompiled sweep plans;
* ``numba`` — an njit-compiled track-parallel kernel (optional extra);
* ``reference`` — the seed lockstep loop, kept as equivalence oracle and
  benchmark baseline.

Selection order: explicit argument, then the ``REPRO_SWEEP_BACKEND``
environment variable, then the solver-config default. ``auto`` picks
``numba`` when importable, ``numpy`` otherwise; asking for ``numba``
without numba installed silently degrades to ``numpy`` (logged once) so
dependency-light installs keep working unchanged.
"""

from __future__ import annotations

import os

from repro.errors import SolverError
from repro.io.logging_utils import get_logger
from repro.solver.backends.base import KernelBackend, KernelTimings, SweepContext
from repro.solver.backends.numba_backend import NUMBA_IMPORT_ERROR, NumbaSweepBackend
from repro.solver.backends.numpy_backend import NumpySweepBackend, SweepWorkspace, lockstep
from repro.solver.backends.plan import SweepPlan, TrackTopology, build_position_index
from repro.solver.backends.reference_backend import ReferenceSweepBackend

#: Environment override consulted when no backend is requested explicitly.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: Default backend when nothing is configured anywhere.
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, KernelBackend] = {}
_warned_fallback = False


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend to the registry (last registration wins per name)."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(NumpySweepBackend())
register_backend(NumbaSweepBackend())
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


def _warn_fallback(requested: str, resolved: str, reason: str) -> None:
    """One-time structured fallback notice: which backend actually runs."""
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    get_logger("repro.solver.backends").warning(
        "sweep backend fallback: requested=%r resolved=%r reason=%r "
        "(install the numba extra — pip install repro[jit] — or select "
        "backend='numpy' explicitly to silence this)",
        requested, resolved, reason,
    )


def resolve_backend(
    requested: str | KernelBackend | None = None,
) -> KernelBackend:
    """Select the sweep kernel: argument > env var > default, with the
    documented graceful fallback to ``numpy`` when numba is missing.

    Any fallback is announced once per process with the import failure
    reason, so a benchmark log always records which kernel really ran."""
    if isinstance(requested, KernelBackend):
        return requested
    name = requested or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    name = name.strip().lower()
    if name == "auto":
        if _REGISTRY["numba"].is_available():
            name = "numba"
        else:
            _warn_fallback(
                "auto", "numpy", NUMBA_IMPORT_ERROR or "numba unavailable"
            )
            name = "numpy"
    backend = get_backend(name)
    if not backend.is_available():
        _warn_fallback(
            name, "numpy", NUMBA_IMPORT_ERROR or f"backend {name!r} unavailable"
        )
        backend = _REGISTRY["numpy"]
    return backend


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
