"""Execution engines for decomposed transport solves.

The communicator/engine layer behind the decomposed drivers
(:mod:`repro.parallel.driver`, :mod:`repro.parallel.driver3d`):

* ``inproc`` — the deterministic in-process simulator over
  :class:`~repro.parallel.comm.SimComm`, kept as the equivalence oracle;
* ``mp`` — real OS worker processes sweeping subdomains in parallel,
  with the halo and the global flux in shared SoA buffers;
* ``mp-async`` — the same worker pool under per-edge epoch-tagged halo
  mailboxes (dependency-driven, no global barriers).

All engines execute the same route table (:mod:`repro.parallel.exchange`) and
produce identical results and :class:`~repro.parallel.comm.CommStats`
traffic, so every accounting test runs unchanged against any of them.
"""

from repro.engine.async_mp import AsyncMpEngine
from repro.engine.base import (
    EngineResult,
    ExecutionEngine,
    resolve_engine_timeout,
)
from repro.engine.inproc import InprocEngine
from repro.engine.mp import MpEngine
from repro.engine.problem import (
    DecomposedProblem,
    EdgePack,
    RoutePack,
)
from repro.engine.registry import (
    DEFAULT_ENGINE,
    engine_names,
    resolve_engine,
)
from repro.engine.sanitize import (
    FaultSpec,
    SanitizedAsyncMpEngine,
    SanitizedMpEngine,
    SanitizerReport,
    analyze_events,
)

__all__ = [
    "DEFAULT_ENGINE",
    "AsyncMpEngine",
    "DecomposedProblem",
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
    "analyze_events",
    "engine_names",
    "resolve_engine",
    "resolve_engine_timeout",
]
