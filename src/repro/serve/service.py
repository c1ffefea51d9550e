"""The in-process solve service: warm pools, job queue, report reuse.

:class:`SolveService` is the heart of ``repro.serve`` — everything the
network layer does is a thin protocol skin over this class:

* a fixed pool of solver threads drains the admission-controlled
  :class:`~repro.serve.queue.JobQueue` (priorities, FIFO within
  priority, bounded depth, per-request queue deadline);
* fresh solves run one at a time behind ``_solve_gate`` while the other
  threads keep answering report-cache hits. A solve is thousands of small
  numpy calls and each releases the GIL: two interleaved solves hand it
  back and forth at every call, which costs more than it overlaps and
  costs a different amount from run to run (DESIGN.md, "The solve gate").
  The wait at the gate is accounted to ``serve/queued``;
* engines and shared-memory arenas stay warm across requests in an
  :class:`~repro.engine.pool.EnginePool`; tracking caches are shared per
  (directory, lock-timeout) so repeated geometry/tracking fingerprints
  skip laydown;
* a finished solve's pristine report and flux land in the manifest-keyed
  :class:`~repro.serve.cache.ReportCache`; an exact-manifest repeat is
  answered from it without sweeping, bitwise-equal to a fresh solve.

Served responses are annotated — never the solved truth: the service
adds the :data:`~repro.observability.counters.SERVICE_ONLY_COUNTERS`,
``serve/*`` queue-latency stages and a ``serve`` span root to a *copy*
of the report; the cached payload and all numeric results stay exactly
what a CLI run of the same config produces.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Mapping

from repro.engine.pool import EnginePool
from repro.errors import AdmissionError, ReproError, ServeError
from repro.io.config import RunConfig, config_from_dict
from repro.io.logging_utils import get_logger
from repro.observability.manifest import config_hash
from repro.observability.record import RunReport
from repro.observability.spans import Span
from repro.runtime.stages import StageName
from repro.serve.cache import CacheEntry, ReportCache
from repro.serve.jobs import JobState, SolveJob
from repro.serve.queue import DEFAULT_MAX_DEPTH, JobQueue
from repro.tracks.cache import TrackingCache

#: What a solve can realistically raise inside a solver thread. Mirrors
#: the engine worker policy: programming errors crash loudly instead of
#: being repackaged as a failed job.
SOLVE_ERRORS = (
    ReproError,
    ArithmeticError,
    ValueError,
    IndexError,
    OSError,
    RuntimeError,
)

#: Pipeline stage -> job lifecycle state announced by the stage hook.
_STAGE_STATES = {
    StageName.TRACK_GENERATION.value: JobState.TRACING,
    StageName.TRANSPORT_SOLVING.value: JobState.SWEEPING,
}


@dataclass(frozen=True)
class ServeOptions:
    """Service sizing and policy knobs."""

    #: Solver threads draining the queue: one runs the fresh solve (they
    #: are gated, see the module docstring), the rest answer cache hits.
    solver_threads: int = 2
    #: Admission bound on undispatched requests.
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
    """A resident solve farm answering config-shaped requests."""

    def __init__(self, options: ServeOptions | None = None) -> None:
        self.options = options or ServeOptions()
        self.options.validate()
        self.queue = JobQueue(self.options.max_queue_depth)
        self.report_cache = ReportCache(self.options.report_cache_size)
        self.engine_pool = EnginePool()
        self._logger = get_logger("repro.serve")
        self._lock = threading.Lock()
        #: Held for the length of a fresh solve (module docstring).
        self._solve_gate = threading.Lock()
        self._jobs: dict[str, SolveJob] = {}
        self._seq = 0
        self._totals = {
            "submitted": 0,
            "done": 0,
            "failed": 0,
            "rejected": 0,
            "timed_out": 0,
        }
        self._tracking_caches: dict[tuple, TrackingCache] = {}
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
            self._threads = [
                threading.Thread(
                    target=self._solver_loop,
                    name=f"repro-serve-solver-{i}",
                    daemon=True,
                )
                for i in range(self.options.solver_threads)
            ]
            self._started = True
        for thread in self._threads:
            thread.start()
        self._logger.info(
            "solve service up: %d solver threads, queue depth %d, "
            "report cache %d",
            self.options.solver_threads,
            self.options.max_queue_depth,
            self.options.report_cache_size,
        )
        return self

    def close(self, drain: bool = True) -> None:
        """Shut down: ``drain`` finishes the backlog, else it is rejected."""
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
                self._finish_rejected(job, "service shut down before execution")
        for thread in self._threads:
            thread.join()
        self.engine_pool.close()
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
            self._finish_rejected(job, str(exc))
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

    def _solver_loop(self) -> None:
        while True:
            job = self.queue.take()
            if job is None:  # closed and drained: thread exit signal
                return
            try:
                self._execute(job)
            except SOLVE_ERRORS:  # pragma: no cover - defensive backstop
                self._logger.exception("job %s escaped _execute", job.job_id)

    def _execute(self, job: SolveJob) -> None:
        dequeued = time.monotonic()
        job.queued_seconds = max(0.0, dequeued - job.enqueued_at)
        deadline = job.deadline
        if deadline is not None and dequeued > deadline:
            job.finish(
                JobState.TIMED_OUT,
                error=(
                    f"queued {job.queued_seconds:.3f}s, past the "
                    f"{job.timeout}s request deadline"
                ),
            )
            self._bump("timed_out")
            return
        job.transition(JobState.ADMITTED)
        key = self._job_key(job.config)
        entry = self.report_cache.get(key)
        started = time.monotonic()
        if entry is not None:
            report = entry.report()
            job.execute_seconds = time.monotonic() - started
            self._annotate(report, job, hit=True, evictions=0)
            job.finish(
                JobState.DONE,
                report=report,
                scalar_flux=entry.flux(),
                cache_hit=True,
            )
            self._bump("done")
            self._logger.info(
                "job %s: report-cache hit for %s", job.job_id, key[:12]
            )
            return
        with self._solve_gate:
            # The wait for the gate is queueing, not execution.
            started = time.monotonic()
            job.queued_seconds = max(0.0, started - job.enqueued_at)
            try:
                result = self._run(job)
            except SOLVE_ERRORS as exc:
                job.execute_seconds = time.monotonic() - started
                self._logger.error("job %s failed: %s", job.job_id, exc)
                job.finish(JobState.FAILED, error=traceback.format_exc())
                self._bump("failed")
                return
            job.execute_seconds = time.monotonic() - started
        if job.config.scenarios:
            self._finish_batch(job, key, result)
            return
        report = result.run_report
        evictions = 0
        if report is not None:
            # Cache the pristine payload before any annotation touches
            # the report object the response will carry.
            evictions = self.report_cache.put(
                key,
                CacheEntry(
                    report_payload=report.to_dict(),
                    scalar_flux=result.scalar_flux.copy(),
                ),
            )
            self._annotate(report, job, hit=False, evictions=evictions)
        job.finish(
            JobState.DONE,
            report=report,
            scalar_flux=result.scalar_flux,
            cache_hit=False,
        )
        self._bump("done")

    def _job_key(self, cfg: RunConfig) -> str:
        """Report-cache key of a request. A single-scenario request keys
        on its *state* hash, so a per-state entry stored by an earlier
        batch of the same parent config answers it without sweeping."""
        if len(cfg.scenarios) == 1:
            from repro.scenario import state_config_hash

            return state_config_hash(cfg, cfg.scenarios[0])
        return config_hash(cfg.to_dict())

    def _finish_batch(self, job: SolveJob, key: str, result) -> None:
        """Settle a scenario-batch job: every state's pristine report and
        flux are cached under the state's perturbation hash (later
        single-scenario requests hit per state); the batch key carries the
        first state so an exact-batch repeat is a hit too. The response
        answers with the first state."""
        evictions = 0
        for state in result.states:
            evictions += self.report_cache.put(
                state.state_hash,
                CacheEntry(
                    report_payload=state.run_report.to_dict(),
                    scalar_flux=state.scalar_flux.copy(),
                ),
            )
        first = result.states[0]
        if key != first.state_hash:
            evictions += self.report_cache.put(
                key,
                CacheEntry(
                    report_payload=first.run_report.to_dict(),
                    scalar_flux=first.scalar_flux.copy(),
                ),
            )
        report = first.run_report
        self._annotate(report, job, hit=False, evictions=evictions)
        job.finish(
            JobState.DONE,
            report=report,
            scalar_flux=first.scalar_flux,
            cache_hit=False,
        )
        self._bump("done")
        self._logger.info(
            "job %s: scenario batch of %d state(s) cached under %s",
            job.job_id, len(result.states), result.parent_hash[:12],
        )

    def _run(self, job: SolveJob):
        from repro.runtime.antmoc import AntMocApplication

        cfg = job.config

        def stage_hook(stage: str) -> None:
            state = _STAGE_STATES.get(stage)
            if state is not None and job.state is not state:
                job.transition(state)

        engine = self.engine_pool.get(
            cfg.decomposition.engine,
            workers=cfg.decomposition.workers or None,
            timeout=cfg.decomposition.timeout,
            pin_workers=cfg.decomposition.pin_workers,
        )
        if cfg.scenarios:
            from repro.scenario import run_scenario_batch

            return run_scenario_batch(
                cfg,
                engine=engine,
                tracking_cache=self._tracking_cache_for(cfg.tracking),
                stage_hook=stage_hook,
            )
        app = AntMocApplication(
            cfg,
            engine=engine,
            tracking_cache=self._tracking_cache_for(cfg.tracking),
            stage_hook=stage_hook,
        )
        return app.run()

    def _tracking_cache_for(self, tracking) -> TrackingCache | None:
        """One shared cache instance per (dir, lock-timeout) the requests
        name — honoured by the application only when the request enables
        caching, so reuse never switches caching on behind a config."""
        if not tracking.tracking_cache:
            return None
        key = (tracking.cache_dir, tracking.cache_lock_timeout)
        with self._lock:
            cache = self._tracking_caches.get(key)
            if cache is None:
                cache = TrackingCache(
                    tracking.cache_dir, lock_timeout=tracking.cache_lock_timeout
                )
                self._tracking_caches[key] = cache
            return cache

    # -------------------------------------------------------- annotation

    def _annotate(
        self, report: RunReport, job: SolveJob, hit: bool, evictions: int
    ) -> None:
        """Stamp the service-only story onto a response report copy.

        Counters record the reuse outcome (zeros included, so a hit/miss
        is always *visible*, never merely absent); the queue latency
        lands as ``serve``/``serve/…`` stage rows and a ``serve`` span
        root. Everything the equivalence suite compares — results,
        workload counters — is left untouched.
        """
        report.counters.add("serve_requests", 1)
        report.counters.add("report_cache_hits", 1 if hit else 0)
        report.counters.add("report_cache_misses", 0 if hit else 1)
        report.counters.add("report_cache_evictions", evictions)
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

    def _bump(self, name: str) -> None:
        with self._lock:
            self._totals[name] += 1

    def _finish_rejected(self, job: SolveJob, reason: str) -> None:
        job.finish(JobState.REJECTED, error=reason)
        self._bump("rejected")

    def stats(self) -> dict[str, Any]:
        with self._lock:
            totals = dict(self._totals)
        return {
            "totals": totals,
            "queue_depth": len(self.queue),
            "report_cache": self.report_cache.stats(),
            "arena_pool": self.engine_pool.arena_pool.stats(),
            "solver_threads": self.options.solver_threads,
        }
