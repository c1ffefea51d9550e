"""Execution-engine abstractions for decomposed transport solves.

An :class:`ExecutionEngine` runs the stage-4 eigenvalue iteration of a
spatially decomposed problem (2D lattice cuts or 3D axial slabs) and
carries boundary angular flux along the precomputed route table
(:mod:`repro.parallel.exchange`). Engines differ only in *how* the
subdomain sweeps execute and how the halo moves:

* ``inproc`` — the deterministic single-process simulator (the historical
  behaviour, kept as the equivalence oracle);
* ``mp`` — real OS worker processes over anonymous shared-memory SoA
  buffers (:class:`~repro.runtime.cpus.Arena`) with a barrier-phased halo
  exchange (the paper's Buffered Synchronous scheme);
* ``mp-async`` — the same worker pool under the dependency-driven mailbox
  protocol: per-edge epoch-tagged halo mailboxes instead of global
  barriers, so a worker only ever waits on its own neighbours.

All consume the same :class:`~repro.engine.problem.DecomposedProblem`
adapter and the same routing tables, so traffic accounting and results are
engine-independent by construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.constants import DEFAULT_ENGINE_TIMEOUT
from repro.errors import ConfigError
from repro.parallel.comm import SimComm
from repro.solver.power import SolveResult


def resolve_engine_timeout(timeout: float = DEFAULT_ENGINE_TIMEOUT) -> float:
    """The engine wait timeout as seconds; a non-positive timeout raises
    :class:`~repro.errors.ConfigError` rather than silently producing an
    engine that can never time out."""
    timeout = float(timeout)
    if not timeout > 0.0:
        raise ConfigError(f"engine timeout must be positive (got {timeout})")
    return timeout


@dataclass
class EngineResult(SolveResult):
    """Outcome of a decomposed eigenvalue solve: the power iteration's
    result (``scalar_flux`` is global ``(R_total, G)``, domain-blocked)
    plus how the engine ran it and what it moved."""

    #: Registry name of the engine that produced the result.
    engine: str = "inproc"
    #: Number of OS processes that executed sweeps (1 for ``inproc``).
    num_workers: int = 1
    #: Per-worker ``(worker_id, stage -> seconds)`` timing payloads.
    worker_timers: list[tuple[int, dict[str, float]]] = field(default_factory=list)
    #: Race-sanitizer report (``*-sanitize`` engines only, else ``None``).
    sanitizer: Any = None
    #: Engine-side counters fed into the observability CounterSet:
    #: ``mp-async``'s ``halo_wait_ns``, ``neighbor_stalls`` and
    #: ``epochs_overlapped`` summed across workers; the sanitized engines'
    #: ``sanitizer_events`` / ``sanitizer_findings``.
    comm_counters: dict[str, int] = field(default_factory=dict)
    #: The communicator's traffic totals when the solve returned.
    comm_bytes: int = 0
    comm_messages: int = 0
    comm_allreduce_calls: int = 0


class ExecutionEngine(ABC):
    """One way of executing a decomposed transport solve."""

    #: Registry name; concrete engines override.
    name: str = "?"

    def create_communicator(self, size: int) -> SimComm:
        """The communicator over ``size`` ranks this engine reduces and
        accounts through. Engines that move the halo through shared
        memory instead of messages tally the *equivalent* traffic along
        the route tables, so the Eq. (7) traffic-accounting tests see
        identical :class:`~repro.parallel.comm.CommStats` from every
        engine.
        """
        return SimComm(size)

    @abstractmethod
    def solve(self, problem, comm) -> EngineResult:
        """Run the eigenvalue iteration of ``problem`` to convergence."""

    def _result(self, solved: SolveResult, comm, timer, **extras) -> EngineResult:
        """``solved`` as this engine's result: wall time from the engine's
        own ``engine_solve`` stage, traffic from ``comm``."""
        fields = dict(vars(solved), solve_seconds=timer.duration("engine_solve"))
        return EngineResult(
            **fields,
            engine=self.name,
            comm_bytes=comm.stats.bytes_sent,
            comm_messages=comm.stats.messages_sent,
            comm_allreduce_calls=comm.stats.allreduce_calls,
            **extras,
        )
