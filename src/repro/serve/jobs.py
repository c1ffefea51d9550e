"""Solve jobs and their lifecycle state machine.

Every request the service accepts becomes a :class:`SolveJob` walking a
fixed state machine::

    queued ──> admitted ──> tracing ──> sweeping ──> done
       │           │            │           │
       │           ├──> done (report-cache hit: no tracing, no sweeping)
       │           │
       ├──> rejected (admission control; never executed)
       ├──> timed-out (request deadline passed while queued)
       │           └──> failed    └──> failed   └──> failed

Transitions outside :data:`JOB_TRANSITIONS` raise
:class:`~repro.errors.ServeError` — a job can never silently skip a
lifecycle step or resurrect from a terminal state. ``tracing`` and
``sweeping`` are driven by the application's ``stage_hook`` (the
track-generation and transport-solving pipeline stages, announced up the
solve slot's pipe and replayed here by the solver thread), so the
service's view of a job is the pipeline's view, not a parallel
bookkeeping guess.

Waiters block on a per-job :class:`threading.Condition`; the terminal
transition notifies them — there is no polling anywhere in the lifecycle.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.errors import ServeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.io.config import RunConfig
    from repro.observability.record import RunReport


class JobState(enum.Enum):
    """Lifecycle states of a solve request."""

    QUEUED = "queued"
    ADMITTED = "admitted"
    TRACING = "tracing"
    SWEEPING = "sweeping"
    DONE = "done"
    REJECTED = "rejected"
    TIMED_OUT = "timed-out"
    FAILED = "failed"


#: Allowed transitions; terminal states allow none.
JOB_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset(
        {JobState.ADMITTED, JobState.REJECTED, JobState.TIMED_OUT}
    ),
    JobState.ADMITTED: frozenset(
        {JobState.TRACING, JobState.DONE, JobState.FAILED, JobState.TIMED_OUT}
    ),
    JobState.TRACING: frozenset({JobState.SWEEPING, JobState.FAILED}),
    JobState.SWEEPING: frozenset({JobState.DONE, JobState.FAILED}),
    JobState.DONE: frozenset(),
    JobState.REJECTED: frozenset(),
    JobState.TIMED_OUT: frozenset(),
    JobState.FAILED: frozenset(),
}

#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.REJECTED, JobState.TIMED_OUT, JobState.FAILED}
)


def request_priority(value: Any) -> int:
    """A request's ``priority``: an int (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(f"request priority must be an integer (got {value!r})")
    return value


def request_seconds(key: str, value: Any) -> float | None:
    """A request's ``key`` in seconds: ``None``, or a positive number a
    wait can take (at most ``threading.TIMEOUT_MAX``: not NaN or inf)."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0 < value <= threading.TIMEOUT_MAX
    ):
        raise ServeError(
            f"request {key} must be a positive number of seconds or null (got {value!r})"
        )
    return float(value)


class SolveJob:
    """One solve request moving through the service.

    ``timeout`` is the request's *queue* deadline: a job still waiting for
    a solver thread when it expires is timed out at dequeue (a single-flight
    follower again when its wait for the leading solve ends). Execution is
    never preempted mid-solve — a request that was admitted in time runs
    to completion (the engine's own timeout bounds a wedged solve).
    """

    def __init__(
        self,
        job_id: str,
        config: "RunConfig",
        priority: int = 0,
        timeout: float | None = None,
        tag: str | None = None,
    ) -> None:
        self.job_id = str(job_id)
        self.config = config
        self.priority = int(priority)
        self.timeout = request_seconds("timeout", timeout)
        self.tag = tag
        self.state = JobState.QUEUED
        self.error: str | None = None
        self.report: "RunReport | None" = None
        self.scalar_flux: "np.ndarray | None" = None
        self.cache_hit = False
        self.enqueued_at = time.monotonic()
        self.queued_seconds = 0.0
        self.execute_seconds = 0.0
        self._cond = threading.Condition()

    @property
    def deadline(self) -> float | None:
        if self.timeout is None:
            return None
        return self.enqueued_at + self.timeout

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``; illegal moves raise :class:`ServeError`."""
        with self._cond:
            allowed = JOB_TRANSITIONS[self.state]
            if new_state not in allowed:
                raise ServeError(
                    f"job {self.job_id}: illegal transition "
                    f"{self.state.value} -> {new_state.value} "
                    f"(allowed: {sorted(s.value for s in allowed)})"
                )
            self.state = new_state
            if new_state in TERMINAL_STATES:
                self._cond.notify_all()

    def finish(
        self,
        state: JobState,
        report: "RunReport | None" = None,
        scalar_flux: "np.ndarray | None" = None,
        error: str | None = None,
        cache_hit: bool = False,
    ) -> None:
        """Record the outcome, then make the terminal transition."""
        if state not in TERMINAL_STATES:
            raise ServeError(f"finish() needs a terminal state, got {state.value}")
        with self._cond:
            self.report = report
            self.scalar_flux = scalar_flux
            self.error = error
            self.cache_hit = bool(cache_hit)
        self.transition(state)

    @property
    def done(self) -> bool:
        with self._cond:
            return self.state in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> JobState:
        """Block until the job reaches a terminal state and return it."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self.state in TERMINAL_STATES, timeout
            ):
                raise ServeError(
                    f"job {self.job_id} still {self.state.value} after "
                    f"{timeout}s wait"
                )
            return self.state

    def describe(self) -> dict[str, Any]:
        """Protocol-facing summary (no report payload, no flux)."""
        with self._cond:
            return {
                "job_id": self.job_id,
                "state": self.state.value,
                "priority": self.priority,
                "tag": self.tag,
                "cache_hit": self.cache_hit,
                "error": self.error,
            }
