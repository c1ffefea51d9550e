"""Real multiprocess execution engine: domain-parallel sweeps over shared memory.

The paper's operating mode is one MPI rank per subdomain sweeping in
parallel with near-neighbour boundary-flux exchange. This engine is the
host-side realisation of that scheme: subdomains are assigned round-robin
to ``fork``-ed OS worker processes, the global scalar flux and the halo
live in :class:`~repro.engine.shm.ShmArena` SoA buffers, and each
iteration runs two barrier phases (the Buffered Synchronous scheme):

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
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from functools import partial
from queue import Empty
from threading import BrokenBarrierError
from typing import Any, Callable, Mapping, NoReturn, Protocol

from repro.constants import DEFAULT_ENGINE_TIMEOUT
from repro.engine.base import EngineResult, ExecutionEngine, resolve_engine_timeout
from repro.engine.problem import DecomposedProblem, RoutePack
from repro.engine.shm import ShmArena
from repro.errors import ReproError, SolverError
from repro.io.logging_utils import StageTimer, get_logger
from repro.parallel.comm import SimComm

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


def _describe_exit(exitcode: int | None) -> str:
    """Human-readable form of a ``Process.exitcode``."""
    if exitcode is None:
        return "still running"
    if exitcode < 0:
        signum = -exitcode
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        return f"killed by {name}"
    return f"exit code {exitcode}"


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

#: Seconds between ``alive`` checks of a blocked barrier wait.
_LIVENESS_SLICE = 0.2


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
        :data:`_LIVENESS_SLICE` seconds while the wait blocks."""
        state = self._state
        if not self._lock.acquire(True, timeout):
            self._break()
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
        while not turnstile.acquire(True, timeout if alive is None else _LIVENESS_SLICE):
            if alive is None or not alive() or (
                deadline is not None and time.monotonic() >= deadline
            ):
                self._break()
        if state[_BROKEN]:
            self._break()
        return index

    def abort(self) -> None:
        """Break the barrier: every pending and later wait raises."""
        self._state[_BROKEN] = 1
        for turnstile in self._turnstiles:
            for _ in range(self.parties):
                turnstile.release()

    def _break(self) -> NoReturn:
        self.abort()
        raise BrokenBarrierError


#: ``MpEngine._worker_view`` with the worker bound: (fields, sync) ->
#: (fields, sync, report).
WorkerView = Callable[
    [Mapping[str, Field], Any], tuple[Mapping[str, Field], Any, dict[str, Any]]
]


def _worker_loop(problem: DecomposedProblem, pack: RoutePack, wid: int,
                 owned: list[int], fields: Mapping[str, Field],
                 barrier: PhaseBarrier, queue: Any, timeout: float,
                 view: WorkerView) -> None:
    """Worker body: barrier-phased sweep/exchange until the stop flag.

    The loop subscripts and waits through whatever ``view`` (the engine's
    :meth:`MpEngine._worker_view`) returns for its ``fields`` and
    ``barrier``, and sends ``view``'s report dict back with its timers as
    the one end-of-run message.

    With CMFD on, a worker's sweep phase also rescales its domains' stored
    boundary flux by the previous iteration's prolongation factors (the
    parent published them before releasing this barrier — ``psi_in`` is
    process-private after fork, so only the worker can do this) and writes
    each domain's current tally into its shared ``currents`` rows for the
    parent's rank-ordered reduction.
    """
    timer = StageTimer()
    cmfd = problem.cmfd
    iteration = 0
    try:
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
                    if cmfd is not None and iteration > 0:
                        sweeper.current_tally.scale_boundary_flux(
                            sweeper.psi_in, factors
                        )
                    phi_new[rows] = problem.sweep_domain(d, phi[rows], keff)
                    if cmfd is not None:
                        cmfd.domain_rows(currents, d)[:] = (
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
        queue.put(("done", wid, report))
    except WORKER_ERRORS as exc:
        get_logger("repro.engine.mp").error("worker %d failed: %s", wid, exc)
        queue.put(("error", wid, traceback.format_exc()))
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

    def _raise_worker_failure(self, queue, procs, window: float = 5.0) -> None:
        """A wait broke: surface the worker error that actually caused it.

        The error queue is drained *before* giving up on the window, and a
        worker that died without enqueueing anything (``SIGKILL``, a hard
        crash) is identified by its exit status instead of being reported
        as an anonymous timeout. Tracebacks carrying a real exception are
        listed ahead of sibling ``BrokenBarrierError`` noise — when one
        worker raises, its siblings' barriers break too, and the original
        failure must not be buried under their teardown reports.

        Waiting blocks in the queue's timed ``get`` (the pipe read wakes
        us the moment a report lands) — never a sleep/poll loop.
        """
        deadline = time.monotonic() + window
        reports: dict[int, str] = {}

        def keep(kind: str, wid: int, payload: object) -> None:
            if kind == "error" and int(wid) not in reports:
                reports[int(wid)] = str(payload)

        while time.monotonic() < deadline:
            try:
                keep(*queue.get(timeout=0.2))
            except Empty:
                if reports:
                    break  # collected the racing siblings too; report now
                if any(not p.is_alive() and p.exitcode for p in procs):
                    break  # died without a report; nothing more is coming
        # One last sweep: reports enqueued between the checks above.
        while True:
            try:
                keep(*queue.get_nowait())
            except Empty:
                break
        primary = [
            f"worker {wid}:\n{text}"
            for wid, text in sorted(reports.items())
            if "BrokenBarrierError" not in text
        ]
        secondary = [
            f"worker {wid}:\n{text}"
            for wid, text in sorted(reports.items())
            if "BrokenBarrierError" in text
        ]
        silent = [
            f"worker {wid} died without a report ({_describe_exit(proc.exitcode)})"
            for wid, proc in enumerate(procs)
            if not proc.is_alive() and proc.exitcode and wid not in reports
        ]
        lines = primary + silent + secondary
        detail = "\n".join(lines) if lines else "worker died without a report"
        raise SolverError(f"{self.name} engine worker failure:\n{detail}")

    def _wait(self, barrier, queue, procs) -> None:
        """The parent's barrier wait; a worker that died breaks it at once."""
        try:
            barrier.wait(self.timeout, alive=lambda: not any(p.exitcode for p in procs))
        except BrokenBarrierError:
            self._raise_worker_failure(queue, procs)

    def _fork_context(self):
        """The ``fork`` multiprocessing context, or a clean refusal."""
        ctx_methods = multiprocessing.get_all_start_methods()
        if "fork" not in ctx_methods:
            raise SolverError(
                f"the {self.name} engine needs the 'fork' start method (workers "
                "inherit tracking products and sweep plans); platform offers "
                f"{ctx_methods}"
            )
        return multiprocessing.get_context("fork")

    def _pool_result(self, solved, comm, timer, payloads, num_workers):
        """The result of a worker-pool solve: ``solved`` plus the workers'
        end-of-run payloads."""
        return self._result(
            solved, comm, timer, num_workers=num_workers,
            worker_timers=sorted(payloads.get("timers", {}).items()),
            **self._result_extras(payloads, num_workers),
        )

    def solve(self, problem: DecomposedProblem, comm: SimComm) -> EngineResult:
        ctx = self._fork_context()
        timer = StageTimer()
        D = problem.num_domains
        W = self.resolve_workers(D)
        self._prepare_solve(problem, W)
        pack = RoutePack(problem)
        slot = pack.slot_shape if pack.num_routes else problem.slot_shape
        cmfd = problem.cmfd
        shapes = {
            "phi": (problem.num_fsrs_total, problem.num_groups),
            "phi_new": (problem.num_fsrs_total, problem.num_groups),
            "halo": (max(pack.num_routes, 1),) + tuple(slot),
            "control": (2,),
        }
        if cmfd is not None:
            shapes["currents"] = (
                max(cmfd.total_pair_rows, 1), problem.num_groups
            )
            shapes["factors"] = (cmfd.num_cells, problem.num_groups)
        arena = ShmArena(shapes)
        fields = {name: arena[name] for name in shapes}
        phi, phi_new = arena["phi"], arena["phi_new"]
        control = arena["control"]
        currents = arena["currents"] if cmfd is not None else None
        factors = arena["factors"] if cmfd is not None else None
        barrier = SemaphoreBarrier(ctx, W + 1)
        queue = ctx.Queue()
        owned = [[d for d in range(D) if d % W == w] for w in range(W)]
        procs = [
            ctx.Process(
                target=_worker_loop,
                args=(problem, pack, w, owned[w], fields, barrier, queue,
                      self.timeout, partial(self._worker_view, W, w)),
                daemon=True,
                name=f"repro-{self.name}-worker-{w}",
            )
            for w in range(W)
        ]

        def sweep(flux, keff, active):
            control[_KEFF] = keff[0]
            control[_STOP] = 0.0
            self._wait(barrier, queue, procs)  # release the sweep phase
            self._wait(barrier, queue, procs)  # sweeps + halo writes done
            pack.account_iteration(comm.stats)
            return [phi_new]

        def current_rows():
            return [cmfd.domain_rows(currents, d) for d in range(D)]

        def prolong(flux, mult):
            # psi_in is process-private after fork: workers rescale theirs
            # from the published factors at the start of the next sweep.
            flux *= mult[cmfd.cellmap]
            factors[:] = mult

        self._logger.info(
            "%s engine: %d domains over %d workers (%s shared)",
            self.name, D, W, _fmt_bytes(arena.nbytes),
        )
        try:
            with timer.stage("engine_solve"):
                for proc in procs:
                    proc.start()
                phi.fill(1.0)
                solved = problem.power_iteration(
                    comm, timer, current_rows, prolong, sweep
                ).run([phi])[0]
                control[_STOP] = 1.0
                self._wait(barrier, queue, procs)  # workers observe stop and exit
                payloads = self._collect_payloads(queue, procs, W)
            return self._pool_result(solved, comm, timer, payloads, W)
        finally:
            control[_STOP] = 1.0
            barrier.abort()  # frees any worker still waiting; lock-free
            for proc in procs:
                proc.join(timeout=5.0)
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - crash cleanup
                    proc.terminate()
                    proc.join(timeout=5.0)
            del phi, phi_new, control, currents, factors, fields
            arena.close(unlink=True)

    def _collect_payloads(
        self, queue, procs, num_workers: int
    ) -> dict[str, dict[int, Any]]:
        """Drain the one end-of-run message of every worker (a dict of
        payload kinds: ``timers``, ...), regrouped kind -> worker."""
        reports: dict[int, dict[str, Any]] = {}
        for kind, wid, report in _drain(queue, 10.0, num_workers, procs):
            if kind == "error":
                raise SolverError(f"{self.name} engine worker {wid} failed:\n{report}")
            reports[wid] = report
        kinds = {name for report in reports.values() for name in report}
        return {
            name: {w: r[name] for w, r in reports.items() if name in r}
            for name in kinds
        }


def _drain(queue, timeout: float, expected: int | None = None, procs=()):
    """Collect queued worker messages, blocking in timed ``get`` calls
    (the pipe read wakes us the moment a message lands — no poll loop).
    Stops early once every worker process has exited and a short grace
    ``get`` (the feeder thread may still be flushing) comes back empty —
    no message can arrive from a dead sender, so waiting out the window
    would only delay the failure report."""
    messages = []
    deadline = time.monotonic() + timeout
    while expected is None or len(messages) < expected:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        all_dead = bool(procs) and all(not p.is_alive() for p in procs)
        try:
            # Capped at 0.2 s so a worker dying mid-wait is noticed on the
            # next liveness check instead of after the whole window.
            messages.append(queue.get(timeout=min(remaining, 0.2)))
        except Empty:
            if all_dead or (expected is None and messages):
                break
    return messages


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n}B"  # pragma: no cover
