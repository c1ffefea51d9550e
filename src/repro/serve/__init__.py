"""Solver-as-a-service: a resident solve farm behind a job queue.

ANT-MOC treats a solve as a batch run; this package makes the solver a
long-lived service, the same shape as an inference server in an ML stack:

* :class:`~repro.serve.service.SolveService` — the in-process API. Holds
  an admission-controlled priority queue
  (:class:`~repro.serve.queue.JobQueue`) drained by a fixed set of solver
  threads, and a manifest-keyed LRU report cache
  (:class:`~repro.serve.cache.ReportCache`) that answers an
  exact-repeat request without sweeping — bitwise-identical to a fresh
  solve.
* :mod:`repro.serve.slots` — where the solving happens: one long-lived
  forked solver process per solver thread (ANT-MOC's "one rank per
  device", applied to the farm), each owning its warm engines and pooled
  shared-memory arenas (:class:`~repro.engine.pool.EnginePool`). The
  server process admits, answers hits and waits; it never sweeps.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the stdlib
  TCP / Unix-socket JSON-lines protocol over that service
  (``python -m repro.serve`` starts a server).

Reuse-key hierarchy, coarsest savings first: an identical *manifest*
(:func:`~repro.observability.manifest.config_hash` over the full config)
returns the cached report and flux with no work at all; an identical
*geometry + tracking* fingerprint (the PR-2 content-addressed tracking
cache, shared between slots through the file system) skips track laydown
but re-sweeps; an identical *arena layout* re-maps a segment the same
slot already faulted in; everything else pays full price. Service-side
reuse never changes what is solved — served results are bitwise-equal to
the CLI modulo the
:data:`~repro.observability.counters.SERVICE_ONLY_COUNTERS`.
"""

from repro.serve.cache import CacheEntry, ReportCache
from repro.serve.client import ServeClient
from repro.serve.jobs import JOB_TRANSITIONS, JobState, SolveJob
from repro.serve.queue import JobQueue
from repro.serve.server import SolveServer, parse_address
from repro.serve.service import ServeOptions, SolveService

__all__ = [
    "CacheEntry",
    "JOB_TRANSITIONS",
    "JobQueue",
    "JobState",
    "ReportCache",
    "ServeClient",
    "ServeOptions",
    "SolveJob",
    "SolveServer",
    "SolveService",
    "parse_address",
]
