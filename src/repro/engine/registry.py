"""Execution-engine table and selection.

Like the sweep backends, an engine is selected by name alone (the
config's ``decomposition.engine``, default ``inproc``) from one literal
name -> factory table. There is no silent fallback — asking for an engine
the platform cannot run (``mp`` without ``fork``) fails loudly at solve
time, because the execution semantics the user asked for (real parallel
processes) cannot be substituted quietly.
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
    "resolve_engine",
    "resolve_engine_timeout",
]

#: The engine of a config that names none.
DEFAULT_ENGINE = "inproc"

#: Every engine factory, by name. Factories accept the keyword arguments
#: ``workers`` and ``timeout`` (``inproc`` has no worker pool and ignores
#: both).
_REGISTRY: dict[str, Callable[..., ExecutionEngine]] = {
    "inproc": lambda workers=None, timeout=None: InprocEngine(),
    "mp": MpEngine,
    "mp-sanitize": SanitizedMpEngine,
    "mp-async": AsyncMpEngine,
    "mp-async-sanitize": SanitizedAsyncMpEngine,
}


def engine_names() -> tuple[str, ...]:
    """The engine names, ``inproc`` (the default/oracle) first."""
    return tuple(sorted(_REGISTRY, key=lambda n: (n != DEFAULT_ENGINE, n)))


def resolve_engine(
    requested: str | ExecutionEngine = DEFAULT_ENGINE,
    workers: int | None = None,
    timeout: float = DEFAULT_ENGINE_TIMEOUT,
) -> ExecutionEngine:
    """The execution engine named ``requested`` (an engine instance
    passes through), built with the process options."""
    if isinstance(requested, ExecutionEngine):
        return requested
    name = requested.strip().lower()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown execution engine {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(workers=workers, timeout=timeout)
