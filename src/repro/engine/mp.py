"""Real multiprocess execution engine: domain-parallel sweeps over shared memory.

The paper's operating mode is one MPI rank per subdomain sweeping in
parallel with near-neighbour boundary-flux exchange. This engine is the
host-side realisation of that scheme: subdomains are assigned round-robin
to ``fork``-ed OS worker processes, the global scalar flux and the halo
live in a :class:`~repro.runtime.cpus.Arena` of shared SoA buffers, and
each iteration runs two barrier phases (the Buffered Synchronous scheme):

1. *sweep* — every worker sweeps its subdomains from the stored incoming
   boundary flux, writes the new local scalar flux into the shared global
   array, and packs outgoing interface flux into the shared halo buffer;
2. *exchange + reduce* — after the barrier, workers unpack their incoming
   halo slots (a subdomain "only updates its incoming angular flux at the
   end of a source computation"), while the parent runs the rest of the
   shared power iteration (:mod:`repro.solver.power`): rank-ordered
   production reduce, k update, normalise, CMFD, convergence check.

Reductions happen in exactly the simulator's rank order, halo slots carry
exactly the simulator's values, and traffic is accounted along the same
route tables — so the ``mp`` engine reproduces ``inproc`` results
*bitwise*, while the sweeps really execute on separate cores.

Before the first sweep, one start-up step builds the subdomains where
they are swept: each worker builds its own (:func:`start_up`), the
parent only what needs every subdomain (the route table, the coarse CMFD
problem). Each worker answers up its own one-way pipe: once with what it
built, once with its end-of-run report — or with the traceback of the
error that stopped it (after which it exits non-zero, so the parent's
liveness checks see it die).
"""

from __future__ import annotations

import time
import traceback
from functools import partial
from threading import BrokenBarrierError
from typing import Any, Callable, Mapping, NoReturn, Protocol

import numpy as np

from repro.constants import DEFAULT_ENGINE_TIMEOUT
from repro.engine.base import EngineResult, ExecutionEngine, resolve_engine_timeout
from repro.engine.problem import DecomposedProblem, RoutePack
from repro.errors import ReproError, SolverError
from repro.io.logging_utils import StageTimer, get_logger
from repro.parallel.comm import SimComm
from repro.runtime.cpus import (
    GRACE_S,
    LIVENESS_SLICE_S,
    Arena,
    died,
    fork_context,
    heard,
    orphaned,
    reap,
    start,
    wait,
)

#: Control-word slots (float64): stop flag, current eigenvalue.
_STOP, _KEFF = 0, 1

#: What a sweep can realistically throw in a worker: library errors, a
#: broken/aborted barrier, numpy shape/value problems, or OS-level failures.
#: Deliberately not ``Exception`` — a programming error (``TypeError``,
#: ``AttributeError``) should crash the worker loudly, not be repackaged.
WORKER_ERRORS = (
    ReproError,
    BrokenBarrierError,
    ArithmeticError,
    ValueError,
    IndexError,
    OSError,
    RuntimeError,
)


def log_worker_exit(logger: Any, worker: str, exc: BaseException) -> None:
    """Log why ``worker`` left its loop on ``exc``. A bare
    ``BrokenBarrierError`` means another process — the parent or a
    sibling worker — broke the barrier, so it is logged as a stop, not as
    this worker's failure; any other error names its class."""
    if isinstance(exc, BrokenBarrierError) and not str(exc):
        logger.info("%s stopped: the parent or a sibling worker broke the barrier", worker)
    else:
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        logger.error("%s failed: %s", worker, detail)


class Field(Protocol):
    """What a worker loop subscripts: an ndarray, or something that
    subscripts like one."""

    @property
    def shape(self) -> tuple[int, ...]: ...

    def __getitem__(self, key: Any) -> Any: ...

    def __setitem__(self, key: Any, value: Any) -> None: ...


class PhaseBarrier(Protocol):
    """What a barrier-phased worker loop waits through."""

    def wait(self, timeout: float | None = None) -> int: ...

    def abort(self) -> None: ...


#: Barrier state words: arrivals in this generation, generation, broken.
_ARRIVED, _GENERATION, _BROKEN = 0, 1, 2


class SemaphoreBarrier:
    """A reusable ``parties``-process barrier that a dead party cannot wedge.

    ``multiprocessing.Barrier`` is a ``threading.Barrier`` over a
    cross-process ``Condition`` whose ``notify`` waits — with no timeout —
    for every sleeper to acknowledge its wake-up, so a worker SIGKILLed
    while asleep in the barrier hangs whoever arrives last, whatever
    timeout it passed. Here every wait is one timed semaphore operation:
    arrivals are counted under a lock, the last arrival lets the others
    through the generation's turnstile (two, alternating, so a fast party
    can never take a slow one's token), and :meth:`abort` takes no lock, so
    it cannot fail or block whoever calls it. A wait that times out, or
    whose ``alive`` check turns false, breaks the barrier for every party.
    """

    def __init__(self, ctx: Any, parties: int) -> None:
        self.parties = parties
        self._lock = ctx.Lock()
        self._state = ctx.RawArray("q", 3)
        self._turnstiles = (ctx.Semaphore(0), ctx.Semaphore(0))

    def wait(
        self, timeout: float | None = None, alive: Callable[[], bool] | None = None
    ) -> int:
        """Pass once every party has arrived; ``alive`` is checked every
        :data:`~repro.runtime.cpus.LIVENESS_SLICE_S` while the wait blocks."""
        state = self._state
        if not self._lock.acquire(True, timeout):
            self._break(f"barrier lock not acquired within {timeout} s")
        try:
            if state[_BROKEN]:
                raise BrokenBarrierError
            index = int(state[_ARRIVED])
            turnstile = self._turnstiles[state[_GENERATION] % 2]
            state[_ARRIVED] += 1
            if state[_ARRIVED] == self.parties:
                state[_ARRIVED] = 0
                state[_GENERATION] += 1
                for _ in range(self.parties - 1):
                    turnstile.release()
                return index
        finally:
            self._lock.release()
        deadline = None if timeout is None else time.monotonic() + timeout
        while not turnstile.acquire(True, timeout if alive is None else LIVENESS_SLICE_S):
            if alive is not None and not alive():
                self._break("a party died while the barrier waited")
            if alive is None or (deadline is not None and time.monotonic() >= deadline):
                self._break(f"barrier wait timed out after {timeout} s")
        if state[_BROKEN]:
            raise BrokenBarrierError
        return index

    def abort(self) -> None:
        """Break the barrier: every pending and later wait raises."""
        self._state[_BROKEN] = 1
        for turnstile in self._turnstiles:
            for _ in range(self.parties):
                turnstile.release()

    def _break(self, reason: str) -> NoReturn:
        """Break the barrier for every party and raise ``reason`` here;
        the others raise a bare ``BrokenBarrierError``."""
        self.abort()
        raise BrokenBarrierError(reason)


#: ``MpEngine._worker_view`` with the worker bound: (fields, sync) ->
#: (fields, sync, report).
WorkerView = Callable[
    [Mapping[str, Field], Any], tuple[Mapping[str, Field], Any, dict[str, Any]]
]


def start_up(problem: DecomposedProblem, owned: list[int], arena: Arena,
             barrier: PhaseBarrier, answer: Any, timeout: float) -> None:
    """A worker's half of a solve's one-time start-up step, before its
    loop: build the ``owned`` domains (:meth:`DecomposedProblem.build`,
    writing their volumes and received entry cells into the ``arena``; its
    rendezvous is one barrier passage, after which every worker's entry
    cells are in), send what it built up the ``answer`` pipe, then wait in
    the barrier again while the parent lays out the ``currents`` field
    that answer sized, and map it too (with CMFD on).

    Every engine worker runs this, through the raw barrier: both
    passages come before the loop's first, whatever the engine's own
    protocol.
    """
    built = problem.build(
        owned, arena["volumes"], arena["entries"], lambda: barrier.wait(timeout)
    )
    answer.send(("built", built))
    barrier.wait(timeout)
    if problem.mesh is not None:
        problem.row_offsets = arena["row_offsets"].astype(np.intp)
        arena.lay_out("currents", (max(int(problem.row_offsets[-1]), 1), problem.num_groups))


def _worker_loop(problem: DecomposedProblem, pack: RoutePack, wid: int,
                 owned: list[int], fields: Arena,
                 barrier: PhaseBarrier, answer: Any, timeout: float,
                 view: WorkerView) -> None:
    """Worker body: the start-up step (:func:`start_up`, timed as
    ``worker_build``), then barrier-phased sweep/exchange until the stop
    flag.

    The loop subscripts and waits through whatever ``view`` (the engine's
    :meth:`MpEngine._worker_view`) returns for its ``fields`` and
    ``barrier``, and sends ``view``'s report dict with its timers up its
    ``answer`` pipe as its last answer.

    With CMFD on, a worker's sweep phase also rescales its domains' stored
    boundary flux by the previous iteration's prolongation factors (the
    parent published them before releasing this barrier — ``psi_in`` is
    process-private after fork, so only the worker can do this) and writes
    each domain's current tally into its shared ``currents`` rows for the
    parent's rank-ordered reduction.
    """
    timer = StageTimer()
    accelerated = problem.mesh is not None
    iteration = 0
    try:
        with timer.stage("worker_build"):
            start_up(problem, owned, fields, barrier, answer, timeout)
        fields, barrier, report = view(fields, barrier)
        phi, phi_new = fields["phi"], fields["phi_new"]
        halo, control = fields["halo"], fields["control"]
        currents, factors = fields.get("currents"), fields.get("factors")
        while True:
            barrier.wait(timeout)
            if control[_STOP]:
                break
            keff = float(control[_KEFF])
            with timer.stage("worker_sweep"):
                for d in owned:
                    sweeper = problem.sweeper(d)
                    rows = problem.rows(d)
                    if accelerated and iteration > 0:
                        sweeper.current_tally.scale_boundary_flux(
                            sweeper.psi_in, factors
                        )
                    phi_new[rows] = problem.sweep_domain(d, phi[rows], keff)
                    if accelerated:
                        problem.current_rows(currents, d)[:] = (
                            sweeper.current_tally.take()
                        )
                    idx, tracks, dirs = pack.outgoing(d)
                    if idx.size:
                        halo[idx] = sweeper.psi_out_last[tracks, dirs]
            barrier.wait(timeout)
            with timer.stage("worker_exchange"):
                for d in owned:
                    idx, tracks, dirs = pack.incoming(d)
                    if idx.size:
                        problem.sweeper(d).psi_in[tracks, dirs] = halo[idx]
            iteration += 1
        report["timers"] = timer.as_dict()
        answer.send(("done", report))
    except WORKER_ERRORS as exc:
        log_worker_exit(get_logger("repro.engine.mp"), f"worker {wid}", exc)
        answer.send(("error", traceback.format_exc()))
        barrier.abort()  # siblings and the parent stop waiting at once
        raise SystemExit(1)


class MpEngine(ExecutionEngine):
    """Shared-memory domain-parallel engine over forked worker processes.

    Subclass hooks (used by :mod:`repro.engine.sanitize`):
    :meth:`_prepare_solve` runs in the parent once the worker count is
    known, :meth:`_worker_view` runs in each worker and decides what its
    loop subscripts and waits through, and :meth:`_result_extras` folds
    the workers' end-of-run payloads into the result.
    """

    name = "mp"

    def __init__(
        self,
        workers: int | None = None,
        timeout: float = DEFAULT_ENGINE_TIMEOUT,
    ) -> None:
        self.workers = workers
        self.timeout = resolve_engine_timeout(timeout)
        self._logger = get_logger("repro.engine.mp")

    def _prepare_solve(self, problem: DecomposedProblem, num_workers: int) -> None:
        """Called once per solve after the worker count is resolved."""

    def _worker_view(
        self, num_workers: int, wid: int, fields: Mapping[str, Field], sync: Any
    ) -> tuple[Mapping[str, Field], Any, dict[str, Any]]:
        """Child-side hook: the shared ``fields`` worker ``wid``'s loop
        subscripts, the ``sync`` primitive it waits through (the barrier,
        or ``mp-async``'s value wait) and the dict its end-of-run message
        starts from. The shipped engines hand over the raw arena arrays
        and the raw primitive."""
        return fields, sync, {}

    def _result_extras(
        self, payloads: dict[str, dict[int, Any]], num_workers: int
    ) -> dict[str, Any]:
        """Extra :class:`EngineResult` fields from collected worker payloads."""
        return {}

    def resolve_workers(self, num_domains: int) -> int:
        """Worker count: requested (or one per domain), capped by domains."""
        requested = self.workers or num_domains
        return max(1, min(int(requested), num_domains))

    def _answers(
        self, answers, procs, expect: str = "done", within: float = GRACE_S
    ) -> dict[int, Any]:
        """What the workers answered next within ``within`` seconds, by
        worker: a ``(kind, payload)`` message, or ``None`` for a worker
        that exited without one.

        Each round blocks on the first unheard worker's ``[pipe, sentinel]``
        for one :data:`LIVENESS_SLICE_S`, then looks at every unheard
        worker. Once one has answered anything but ``expect`` or died, a
        round with no news ends the wait: a sibling still asleep in a wait
        would only delay the report.
        """
        heard_from: dict[int, Any] = {}
        deadline = time.monotonic() + within
        while len(heard_from) < len(procs) and (left := deadline - time.monotonic()) > 0:
            pending = [w for w in range(len(procs)) if w not in heard_from]
            wait(procs[pending[0]], answers[pending[0]], min(left, LIVENESS_SLICE_S))
            news = False
            for w in pending:
                exited = procs[w].exitcode is not None  # first: an answer sent before exit is in
                if wait(procs[w], answers[w], 0):
                    heard_from[w], news = heard(answers[w]), True
                elif exited:
                    heard_from[w], news = None, True
            if not news and any(m is None or m[0] != expect for m in heard_from.values()):
                break
        return heard_from

    def _start_up(self, problem: DecomposedProblem, arena: Arena, barrier, answers,
                  procs) -> None:
        """The parent's half of the start-up step (the workers' is
        :func:`start_up`): pass the barrier once every worker's entry cells
        are in, hear each worker's one start-up answer, adopt what they
        built (:meth:`DecomposedProblem.adopt`), lay out the ``currents``
        field at its now known size, and release the workers to map it.
        A worker that fails or dies meanwhile fails the solve, named."""
        self._wait(barrier, answers, procs)
        heard_from = self._answers(answers, procs, expect="built", within=self.timeout)
        if len(heard_from) < len(procs) or any(
            m is None or m[0] != "built" for m in heard_from.values()
        ):
            self._raise_worker_failure(heard_from, procs)
        problem.adopt([m[1] for _, m in sorted(heard_from.items())], arena["volumes"])
        if problem.cmfd is not None:
            arena["row_offsets"][:] = problem.cmfd.row_offsets
            arena.lay_out(
                "currents", (max(problem.cmfd.total_pair_rows, 1), problem.num_groups)
            )
        self._wait(barrier, answers, procs)

    def _arena(self, problem: DecomposedProblem, shapes: dict[str, tuple[int, ...]]) -> Arena:
        """The solve's arena: the engine's own ``shapes`` plus what every
        engine shares — the start-up step's fixed-size fields and, with
        CMFD on, the prolongation ``factors`` and the ``currents`` laid
        out after the start-up step."""
        shapes = {
            **shapes,
            "volumes": (problem.num_fsrs_total,),
            "entries": (max(len(problem.route_columns), 1),),
        }
        if problem.mesh is None:
            return Arena(shapes)
        shapes["factors"] = (problem.mesh.num_cells, problem.num_groups)
        shapes["row_offsets"] = (problem.num_domains + 1,)
        return Arena(shapes, later=("currents",))

    def _raise_worker_failure(self, heard_from: dict[int, Any], procs) -> NoReturn:
        """Surface the worker error that actually broke the solve.

        A worker that died without answering (``SIGKILL``, a hard crash)
        is named by its exit status instead of being reported as an
        anonymous timeout. Tracebacks carrying a real exception are listed
        ahead of sibling ``BrokenBarrierError`` noise — when one worker
        raises, its siblings' barriers break too, and the original failure
        must not be buried under their teardown reports.
        """
        heard_from = dict(sorted(heard_from.items()))
        errors = {w: str(m[1]) for w, m in heard_from.items() if m is not None and m[0] == "error"}
        primary = [f"worker {w}:\n{t}" for w, t in errors.items() if "BrokenBarrierError" not in t]
        secondary = [f"worker {w}:\n{t}" for w, t in errors.items() if "BrokenBarrierError" in t]
        silent = [
            f"worker {w} died without a report ({died(procs[w])})"
            for w, m in heard_from.items()
            if m is None
        ]
        lines = primary + silent + secondary
        detail = "\n".join(lines) if lines else "worker died without a report"
        raise SolverError(f"{self.name} engine worker failure:\n{detail}")

    def _reports(self, answers, procs) -> dict[str, dict[int, Any]]:
        """Every worker's end-of-run report (a dict of payload kinds:
        ``timers``, ...), regrouped kind -> worker."""
        heard_from = self._answers(answers, procs)
        if len(heard_from) < len(procs) or any(
            m is None or m[0] != "done" for m in heard_from.values()
        ):
            self._raise_worker_failure(heard_from, procs)
        reports = {wid: m[1] for wid, m in heard_from.items()}
        kinds = {name for report in reports.values() for name in report}
        return {
            name: {w: r[name] for w, r in reports.items() if name in r}
            for name in kinds
        }

    def _wait(self, barrier, answers, procs) -> None:
        """The parent's barrier wait; a worker that died breaks it at once."""
        self._raise_orphaned()
        try:
            barrier.wait(self.timeout, alive=lambda: not any(p.exitcode for p in procs))
        except BrokenBarrierError:
            self._raise_worker_failure(self._answers(answers, procs), procs)

    def _raise_orphaned(self) -> None:
        """Stop before a wait when the process that forked this one is gone
        (:func:`~repro.runtime.cpus.orphaned`): a solve slot hears nothing
        on its pipe mid-job, and no server is left to take the answer."""
        if orphaned():
            raise SolverError(
                f"{self.name} engine stopped: the process that forked this one is gone"
            )

    def _pool_result(self, solved, comm, timer, payloads, num_workers):
        """The result of a worker-pool solve: ``solved`` plus the workers'
        end-of-run payloads."""
        return self._result(
            solved, comm, timer, num_workers=num_workers,
            worker_timers=sorted(payloads.get("timers", {}).items()),
            **self._result_extras(payloads, num_workers),
        )

    def solve(self, problem: DecomposedProblem, comm: SimComm) -> EngineResult:
        ctx = fork_context(SolverError)
        timer = StageTimer()
        D = problem.num_domains
        W = self.resolve_workers(D)
        self._prepare_solve(problem, W)
        pack = RoutePack(problem)
        slot = pack.slot_shape if pack.num_routes else problem.slot_shape
        arena = self._arena(problem, {
            "phi": (problem.num_fsrs_total, problem.num_groups),
            "phi_new": (problem.num_fsrs_total, problem.num_groups),
            "halo": (max(pack.num_routes, 1),) + tuple(slot),
            "control": (2,),
        })
        phi, phi_new = arena["phi"], arena["phi_new"]
        control = arena["control"]
        factors = arena.get("factors")
        barrier = SemaphoreBarrier(ctx, W + 1)
        answers: list[Any] = []
        owned = [[d for d in range(D) if d % W == w] for w in range(W)]
        procs: list[Any] = []

        def sweep(flux, keff, active):
            control[_KEFF] = keff[0]
            control[_STOP] = 0.0
            self._wait(barrier, answers, procs)  # release the sweep phase
            self._wait(barrier, answers, procs)  # sweeps + halo writes done
            pack.account_iteration(comm.stats)
            return [phi_new]

        def current_rows():
            currents = arena["currents"]
            return [problem.current_rows(currents, d) for d in range(D)]

        def prolong(flux, mult):
            # psi_in is process-private after fork: workers rescale theirs
            # from the published factors at the start of the next sweep.
            flux *= mult[problem.mesh.cellmap]
            factors[:] = mult

        self._logger.info(
            "%s engine: %d domains over %d workers (%s shared)",
            self.name, D, W, fmt_bytes(arena.nbytes),
        )
        try:
            with timer.stage("engine_solve"):
                for w in range(W):
                    answer, send = ctx.Pipe(duplex=False)
                    answers.append(answer)
                    procs.append(start(
                        target=_worker_loop,
                        args=(problem, pack, w, owned[w], arena, barrier, send,
                              self.timeout, partial(self._worker_view, W, w)),
                        name=f"repro-{self.name}-worker-{w}",
                        daemon=True,
                        ends=(send,),
                    ))
                self._start_up(problem, arena, barrier, answers, procs)
                phi.fill(1.0)
                solved = problem.power_iteration(
                    comm, timer, current_rows, prolong, sweep
                ).run([phi])[0]
                control[_STOP] = 1.0
                self._wait(barrier, answers, procs)  # workers observe stop and exit
                payloads = self._reports(answers, procs)
            return self._pool_result(solved, comm, timer, payloads, W)
        finally:
            control[_STOP] = 1.0
            barrier.abort()  # frees any worker still waiting; lock-free
            reap(procs, asked=True)
            for answer in answers:
                answer.close()


def fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n}B"  # pragma: no cover
