"""The in-process solve service: job queue, solve slots, report reuse.

:class:`SolveService` is the heart of ``repro.serve`` — everything the
network layer does is a thin protocol skin over this class:

* a fixed set of solver threads drains the admission-controlled
  :class:`~repro.serve.queue.JobQueue` (priorities, FIFO within
  priority, bounded depth, per-request queue deadline);
* each solver thread fronts one *solve slot* — a long-lived solver
  process forked in :meth:`SolveService.start` before any thread exists
  (:mod:`repro.serve.slots`). A report-cache hit is answered in-thread; a
  miss goes down the slot's pipe and the thread waits for the answer
  without holding the GIL, so ``solver_threads`` slots solve on that many
  cores. Nothing is solved in the server process, and no option selects
  otherwise (DESIGN.md, "Solve slots");
* a manifest's first touch is single-flight: requests racing for one key
  elect a leader under the service lock, the others wait for its
  terminal transition (that wait is queueing) and are answered as hits;
* a finished solve comes back in wire form — pristine report payload and
  flux — and lands in the manifest-keyed
  :class:`~repro.serve.cache.ReportCache`; an exact-manifest repeat is
  answered from it without sweeping, bitwise-equal to a fresh solve;
* a slot that dies mid-job fails that job with a named reason and is
  respawned; the service stays usable (DESIGN.md, "Fault model").

Served responses are annotated — never the solved truth: the service
adds the :data:`~repro.observability.counters.SERVICE_ONLY_COUNTERS`,
``serve/*`` queue-latency stages and a ``serve`` span root to a report
rebuilt from the payload; the cached payload and all numeric results stay
exactly what a CLI run of the same config produces.
"""

from __future__ import annotations

import atexit
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import AdmissionError, ServeError
from repro.io.config import RunConfig, config_from_dict
from repro.io.logging_utils import get_logger
from repro.observability.manifest import config_hash
from repro.observability.record import RunReport
from repro.observability.spans import Span
from repro.runtime.cpus import cpu_budget
from repro.runtime.stages import StageName
from repro.serve.cache import CacheEntry, ReportCache
from repro.serve.jobs import JobState, SolveJob
from repro.serve.queue import DEFAULT_MAX_DEPTH, JobQueue
from repro.serve.slots import (
    SOLVE_ERRORS,
    SlotBody,
    SlotResult,
    SolveSlots,
    run_job,
)

#: Pipeline stage -> job lifecycle state a slot's announcement replays as.
_STAGE_STATES = {
    StageName.TRACK_GENERATION.value: JobState.TRACING,
    StageName.TRANSPORT_SOLVING.value: JobState.SWEEPING,
}


@dataclass(frozen=True)
class ServeOptions:
    """Service sizing and policy knobs."""

    #: Solve slots: solver threads draining the queue, each fronting its
    #: own solver process. Defaults to the process's CPU budget
    #: (:func:`~repro.runtime.cpus.cpu_budget`).
    solver_threads: int = field(default_factory=lambda: cpu_budget().processes)
    #: Admission bound on undispatched requests (also how many finished
    #: jobs stay addressable by id).
    max_queue_depth: int = DEFAULT_MAX_DEPTH
    #: LRU capacity of the manifest-keyed report cache (0 disables reuse).
    report_cache_size: int = 32
    #: Default per-request queue deadline in seconds (``None``: no limit).
    default_timeout: float | None = None

    def validate(self) -> None:
        if self.solver_threads < 1:
            raise ServeError(f"solver_threads must be >= 1 (got {self.solver_threads})")
        if self.max_queue_depth < 1:
            raise ServeError(f"max_queue_depth must be >= 1 (got {self.max_queue_depth})")
        if self.report_cache_size < 0:
            raise ServeError(
                f"report_cache_size must be >= 0 (got {self.report_cache_size})"
            )
        if self.default_timeout is not None and not self.default_timeout > 0:
            raise ServeError(
                f"default_timeout must be positive (got {self.default_timeout})"
            )


class SolveService:
    """A resident solve farm answering config-shaped requests.

    ``slot_body`` is what a slot runs per job; tests pass a wrapper of
    :func:`~repro.serve.slots.run_job` to hold or observe a solve inside
    the forked process.
    """

    def __init__(
        self, options: ServeOptions | None = None, slot_body: SlotBody = run_job
    ) -> None:
        self.options = options or ServeOptions()
        self.options.validate()
        self.queue = JobQueue(self.options.max_queue_depth)
        self.report_cache = ReportCache(self.options.report_cache_size)
        self._slots = SolveSlots(self.options.solver_threads, slot_body)
        self._logger = get_logger("repro.serve")
        self._lock = threading.Lock()
        #: Every non-terminal job plus the ``max_queue_depth`` most
        #: recently finished ones (``_terminal``, oldest first).
        self._jobs: dict[str, SolveJob] = {}
        self._terminal: deque[str] = deque()
        #: Job key -> the job solving it right now (single-flight).
        self._in_flight: dict[str, SolveJob] = {}
        self._seq = 0
        self._totals = {
            "submitted": 0,
            "done": 0,
            "failed": 0,
            "rejected": 0,
            "timed_out": 0,
        }
        self._threads: list[threading.Thread] = []
        self._started = False
        self._closed = False

    # ---------------------------------------------------------- lifecycle

    def start(self) -> "SolveService":
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise ServeError("service already shut down; build a new one")
            self._started = True
        # Fork first: the slots must not inherit a running thread's locks.
        self._slots.start()
        # Slots are non-daemon: an unclosed service would hang interpreter
        # exit in multiprocessing's own join of live children.
        atexit.register(self.close)
        self._threads = [
            threading.Thread(
                target=self._solver_loop,
                args=(index,),
                name=f"repro-serve-solver-{index}",
                daemon=True,
            )
            for index in range(self.options.solver_threads)
        ]
        for thread in self._threads:
            thread.start()
        self._logger.info(
            "solve service up: %d solve slots, queue depth %d, report cache %d",
            self.options.solver_threads,
            self.options.max_queue_depth,
            self.options.report_cache_size,
        )
        return self

    def close(self, drain: bool = True) -> None:
        """Shut down: ``drain`` finishes the backlog, else it is rejected.
        A solve already in a slot finishes either way; then the slots stop."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self.queue.close()
        else:
            backlog = self.queue.clear()
            self.queue.close()
            for job in backlog:
                self._finish(
                    job, JobState.REJECTED, error="service shut down before execution"
                )
        for thread in self._threads:
            thread.join()
        self._slots.close()
        atexit.unregister(self.close)
        self._logger.info("solve service drained and closed")

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # ---------------------------------------------------------- submission

    def submit(
        self,
        config: RunConfig | Mapping[str, Any],
        priority: int = 0,
        timeout: float | None = None,
        tag: str | None = None,
    ) -> SolveJob:
        """Queue a solve request; always returns the job.

        A request refused by admission control comes back already
        terminal (``rejected`` state, reason in ``job.error``) — refusal
        is a normal service answer, not a caller bug.
        """
        if not isinstance(config, RunConfig):
            config = config_from_dict(config)
        if timeout is None:
            timeout = self.options.default_timeout
        with self._lock:
            self._seq += 1
            job_id = f"job-{self._seq:06d}"
        job = SolveJob(job_id, config, priority=priority, timeout=timeout, tag=tag)
        with self._lock:
            self._jobs[job_id] = job
            self._totals["submitted"] += 1
        try:
            self.queue.put(job)
        except AdmissionError as exc:
            self._finish(job, JobState.REJECTED, error=str(exc))
        return job

    def solve(
        self,
        config: RunConfig | Mapping[str, Any],
        priority: int = 0,
        timeout: float | None = None,
        tag: str | None = None,
        wait_timeout: float | None = None,
    ) -> SolveJob:
        """Submit, wait for the terminal state, raise unless ``done``."""
        job = self.submit(config, priority=priority, timeout=timeout, tag=tag)
        state = job.wait(wait_timeout)
        if state is not JobState.DONE:
            raise ServeError(
                f"job {job.job_id} ended {state.value}: {job.error or 'no detail'}"
            )
        return job

    def job(self, job_id: str) -> SolveJob:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServeError(f"unknown job id {job_id!r}") from None

    # ---------------------------------------------------------- execution

    def _solver_loop(self, slot: int) -> None:
        while True:
            job = self.queue.take()
            if job is None:  # closed and drained: thread exit signal
                return
            try:
                self._execute(job, slot)
            except SOLVE_ERRORS:  # pragma: no cover - defensive backstop
                self._logger.exception("job %s escaped _execute", job.job_id)
                if not job.done:  # waiters and followers must not hang on it
                    self._finish(job, JobState.FAILED, error=traceback.format_exc())

    def _execute(self, job: SolveJob, slot: int) -> None:
        if self._timed_out(job):
            return
        job.transition(JobState.ADMITTED)
        key = self._job_key(job.config)
        with self._lock:
            # Lookup and claim are one step: an entry is stored before its
            # leader leaves the table, so a miss here finds the leader.
            entry = self.report_cache.get(key)
            leader = job if entry is not None else self._in_flight.setdefault(key, job)
        if leader is not job:
            # Single-flight: wait for the leading solve (queueing, not
            # execution), then read what it stored. If it stored nothing
            # (it failed, reuse is off, the entry was evicted) solve anyway.
            leader.wait()
            if self._timed_out(job):
                return
            entry = self.report_cache.get(key)
        try:
            if entry is not None:
                self._answer_hit(job, key, entry)
            else:
                self._solve(job, key, slot)
        finally:
            with self._lock:
                if self._in_flight.get(key) is job:
                    del self._in_flight[key]

    def _timed_out(self, job: SolveJob) -> bool:
        """Close the job's queueing interval now; finish it ``timed-out``
        if that interval outran the request's queue deadline."""
        now = time.monotonic()
        job.queued_seconds = max(0.0, now - job.enqueued_at)
        if job.deadline is None or now <= job.deadline:
            return False
        self._finish(
            job,
            JobState.TIMED_OUT,
            error=(
                f"queued {job.queued_seconds:.3f}s, past the "
                f"{job.timeout}s request deadline"
            ),
        )
        return True

    def _answer_hit(self, job: SolveJob, key: str, entry: CacheEntry) -> None:
        started = time.monotonic()
        report = entry.report()
        job.execute_seconds = time.monotonic() - started
        self._annotate(report, job, hit=True, evictions=0)
        self._finish(
            job, JobState.DONE, report=report, scalar_flux=entry.flux(), cache_hit=True
        )
        self._logger.info("job %s: report-cache hit for %s", job.job_id, key[:12])

    def _solve(self, job: SolveJob, key: str, slot: int) -> None:
        """Run the job in ``slot``, replaying the slot's stage
        announcements as lifecycle transitions, and settle the outcome."""

        def on_stage(stage: str) -> None:
            state = _STAGE_STATES.get(stage)
            if state is not None and job.state is not state:
                job.transition(state)

        started = time.monotonic()
        try:
            result = self._slots.solve(slot, job.config, on_stage)
        except ServeError as exc:  # the solve raised, or its slot died
            job.execute_seconds = time.monotonic() - started
            self._logger.error("job %s failed: %s", job.job_id, exc)
            self._finish(job, JobState.FAILED, error=str(exc))
            return
        job.execute_seconds = time.monotonic() - started
        # The pristine entries are cached before any annotation exists;
        # the response report is rebuilt from the payload like a hit's.
        evictions = self._store(key, result)
        first = result.states[0][1]
        report = first.report()
        self._annotate(report, job, hit=False, evictions=evictions, slot=slot)
        self._finish(
            job, JobState.DONE, report=report, scalar_flux=first.flux(), cache_hit=False
        )
        if result.parent_hash is not None:
            self._logger.info(
                "job %s: scenario batch of %d state(s) cached under %s",
                job.job_id, len(result.states), result.parent_hash[:12],
            )

    def _job_key(self, cfg: RunConfig) -> str:
        """Report-cache key of a request. A single-scenario request keys
        on its *state* hash, so a per-state entry stored by an earlier
        batch of the same parent config answers it without sweeping."""
        if len(cfg.scenarios) == 1:
            from repro.scenario import state_config_hash

            return state_config_hash(cfg, cfg.scenarios[0])
        return config_hash(cfg.to_dict())

    def _store(self, key: str, result: SlotResult) -> int:
        """Cache a solve; returns the evictions that caused. A scenario
        batch stores every state under its perturbation hash (later
        single-scenario requests hit per state); the request key carries
        the first state — the one the response answers with — so an exact
        repeat is a hit too."""
        evictions = 0
        for state_hash, entry in result.states:
            if state_hash is not None:
                evictions += self.report_cache.put(state_hash, entry)
        first_hash, first = result.states[0]
        if key != first_hash:
            evictions += self.report_cache.put(key, first)
        return evictions

    # -------------------------------------------------------- annotation

    def _annotate(
        self,
        report: RunReport,
        job: SolveJob,
        hit: bool,
        evictions: int,
        slot: int | None = None,
    ) -> None:
        """Stamp the service-only story onto a response report copy.

        Counters record the reuse outcome (zeros included, so a hit/miss
        is always *visible*, never merely absent) and, for a fresh solve,
        the slot that ran it; the queue latency lands as ``serve``/
        ``serve/…`` stage rows and a ``serve`` span root. Everything the
        equivalence suite compares — results, workload counters — is left
        untouched.
        """
        report.counters.add("serve_requests", 1)
        report.counters.add("report_cache_hits", 1 if hit else 0)
        report.counters.add("report_cache_misses", 0 if hit else 1)
        report.counters.add("report_cache_evictions", evictions)
        if slot is not None:
            report.counters.add("serve_slot", slot)
        total = job.queued_seconds + job.execute_seconds
        report.stages["serve"] = total
        report.stages["serve/queued"] = job.queued_seconds
        report.stages["serve/execute"] = job.execute_seconds
        report.spans.append(
            Span(
                "serve",
                None,
                [
                    Span("queued", job.queued_seconds),
                    Span("execute", job.execute_seconds),
                ],
            )
        )

    # -------------------------------------------------------------- stats

    def _finish(self, job: SolveJob, state: JobState, **outcome: Any) -> None:
        """Account for a job's end, bound the registry, then make the
        terminal transition (last, so a waiter already sees the totals)."""
        with self._lock:
            self._totals[state.value.replace("-", "_")] += 1
            self._terminal.append(job.job_id)
            while len(self._terminal) > self.options.max_queue_depth:
                del self._jobs[self._terminal.popleft()]
        job.finish(state, **outcome)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            totals = dict(self._totals)
        slots = self._slots.stats()
        totals["slot_restarts"] = sum(slot["restarts"] for slot in slots)
        return {
            "totals": totals,
            "queue_depth": len(self.queue),
            "report_cache": self.report_cache.stats(),
            "slots": slots,
            "solver_threads": self.options.solver_threads,
        }
