"""Execution engines for decomposed transport solves.

The communicator/engine layer behind the decomposed drivers
(:mod:`repro.parallel.driver`, :mod:`repro.parallel.driver3d`):

* ``inproc`` — the deterministic in-process simulator over
  :class:`~repro.parallel.comm.SimComm`, kept as the equivalence oracle;
* ``mp`` — real OS worker processes sweeping subdomains in parallel,
  with the halo and the global flux in shared-memory SoA buffers;
* ``mp-async`` — the same worker pool under per-edge epoch-tagged halo
  mailboxes (dependency-driven, no global barriers).

All engines execute the same ``Route``/``InterfaceExchange`` tables and
produce identical results and :class:`~repro.parallel.comm.CommStats`
traffic, so every accounting test runs unchanged against any of them.
"""

from repro.engine.async_mp import AsyncMpEngine
from repro.engine.base import (
    ENGINE_TIMEOUT_ENV_VAR,
    EngineResult,
    ExecutionEngine,
    resolve_engine_timeout,
)
from repro.engine.inproc import InprocEngine
from repro.engine.mp import MpEngine
from repro.engine.pool import ArenaPool, EnginePool
from repro.engine.problem import (
    DecomposedProblem,
    EdgePack,
    RoutePack,
)
from repro.engine.registry import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    engine_names,
    register_engine,
    resolve_engine,
)
from repro.engine.sanitize import (
    FaultSpec,
    SanitizedAsyncMpEngine,
    SanitizedMpEngine,
    SanitizerReport,
    analyze_events,
)
from repro.engine.shm import ShmArena

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "ENGINE_TIMEOUT_ENV_VAR",
    "ArenaPool",
    "AsyncMpEngine",
    "DecomposedProblem",
    "EnginePool",
    "EdgePack",
    "EngineResult",
    "ExecutionEngine",
    "FaultSpec",
    "InprocEngine",
    "MpEngine",
    "RoutePack",
    "SanitizedAsyncMpEngine",
    "SanitizedMpEngine",
    "SanitizerReport",
    "ShmArena",
    "analyze_events",
    "engine_names",
    "register_engine",
    "resolve_engine",
    "resolve_engine_timeout",
]
