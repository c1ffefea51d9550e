"""Execution-engine registry and selection.

Mirrors the sweep-backend and tracer registries: engines register by name
and are selected by that name alone (the config's
``decomposition.engine``, default ``inproc``). Unlike the sweep backends
there is no silent fallback — asking for an engine the platform cannot
run (``mp`` without ``fork``) fails loudly at solve time, because the
execution semantics the user asked for (real parallel processes) cannot
be substituted quietly.
"""

from __future__ import annotations

from typing import Callable

from repro.constants import DEFAULT_ENGINE_TIMEOUT
from repro.engine.async_mp import AsyncMpEngine
from repro.engine.base import ExecutionEngine, resolve_engine_timeout
from repro.engine.inproc import InprocEngine
from repro.engine.mp import MpEngine
from repro.engine.sanitize import SanitizedAsyncMpEngine, SanitizedMpEngine
from repro.errors import ConfigError

__all__ = [
    "DEFAULT_ENGINE",
    "engine_names",
    "register_engine",
    "resolve_engine",
    "resolve_engine_timeout",
]

#: The engine of a config that names none.
DEFAULT_ENGINE = "inproc"

_REGISTRY: dict[str, Callable[..., ExecutionEngine]] = {}


def register_engine(name: str, factory: Callable[..., ExecutionEngine]) -> None:
    """Add an engine factory to the registry (last registration wins).

    Factories accept the keyword arguments ``workers`` and ``timeout``
    (engines that have no use for one simply ignore it — ``inproc`` has no
    worker pool to time out).
    """
    _REGISTRY[name] = factory


register_engine("inproc", lambda workers=None, timeout=None: InprocEngine())
register_engine("mp", MpEngine)
register_engine("mp-sanitize", SanitizedMpEngine)
register_engine("mp-async", AsyncMpEngine)
register_engine("mp-async-sanitize", SanitizedAsyncMpEngine)


def engine_names() -> tuple[str, ...]:
    """Registered engine names, ``inproc`` (the default/oracle) first."""
    return tuple(sorted(_REGISTRY, key=lambda n: (n != DEFAULT_ENGINE, n)))


def resolve_engine(
    requested: str | ExecutionEngine = DEFAULT_ENGINE,
    workers: int | None = None,
    timeout: float = DEFAULT_ENGINE_TIMEOUT,
) -> ExecutionEngine:
    """The execution engine registered as ``requested`` (an engine
    instance passes through), built with the process options."""
    if isinstance(requested, ExecutionEngine):
        return requested
    name = requested.strip().lower()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown execution engine {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return factory(workers=workers, timeout=timeout)
