"""Shm race sanitizer: ``--engine=mp-sanitize`` / ``mp-async-sanitize``.

The sanitized engines fork the *shipped* worker loops —
:func:`repro.engine.mp._worker_loop` and
:func:`repro.engine.async_mp._async_worker_loop`, the same function
objects ``mp`` and ``mp-async`` run — and change only what those loops are
handed. The engines' child-side hook (``_worker_view``) wraps the raw
arena arrays in :class:`TrackedField` proxies, whose every subscript
records an :class:`AccessEvent` tagged ``(worker, epoch, array, slice)``
into a per-worker :class:`AccessLog`, and wraps the wait primitive so the
epoch follows the protocol. After the solve, :func:`analyze_events`
checks two invariants over the merged logs:

* **same-epoch overlap** — no two workers may touch overlapping slices of
  the same shared array within one epoch when either access is a write;
* **published halo reads** — a halo slot read in epoch ``e`` must have
  been written in epoch ``e-1``; reading anything else consumes stale or
  in-flight data.

Under the barrier protocol the epoch counts barrier *passages in program
order* (:class:`EpochBarrier`); under the mailbox protocol it is the
worker's local iteration, set at each grant wait, and the flat
``parity * num_slots + route`` halo index makes rule 2 exactly the
mailbox's published-before-read invariant. Either way the verdict is a
deterministic function of the schedule, not of timing: a clean run
reports zero findings every time, and findings fail the run
(:class:`~repro.errors.SanitizerError`).

Fault injection (:class:`FaultSpec`) proves the detectors fire, and lives
entirely in the injected primitives: the faulted worker's barrier proxy
returns at once from the mid-iteration wait and waits twice at the next
one (the exchange runs a phase early, the run still terminates); its
mailbox halo proxy serves reads from the parity producers are writing,
and its edge waits return at once. Both trip both rules every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.constants import DEFAULT_ENGINE_TIMEOUT
from repro.engine.async_mp import AsyncMpEngine
from repro.engine.mp import Field, MpEngine, PhaseBarrier
from repro.errors import SanitizerError
from repro.io.logging_utils import get_logger


@dataclass(frozen=True)
class AccessEvent:
    """One shared-memory access: who, when (barrier epoch), what, where."""

    worker: int
    epoch: int
    kind: str  # "r" | "w"
    array: str
    indices: tuple[int, ...]


class AccessLog:
    """Per-worker event log, stamped with the worker's current epoch."""

    def __init__(self, worker: int) -> None:
        self.worker = int(worker)
        self.epoch = 0
        self.events: list[AccessEvent] = []

    def record(self, kind: str, array: str, indices: Iterable[int]) -> None:
        self.events.append(
            AccessEvent(
                worker=self.worker,
                epoch=self.epoch,
                kind=kind,
                array=array,
                indices=tuple(int(i) for i in indices),
            )
        )


class TrackedField:
    """A shared array whose every subscript is recorded in an AccessLog.

    The worker loops touch the fields they are handed only by subscript,
    so the event log is complete by construction for the arrays wrapped.
    """

    def __init__(self, name: str, array: Field, log: AccessLog) -> None:
        self.name = name
        self.array = array
        self.log = log

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def _rows(self, key: Any) -> Iterable[int]:
        if isinstance(key, slice):
            return range(*key.indices(self.shape[0]))
        if isinstance(key, np.ndarray):
            return key.tolist()
        return (int(key),)

    def __getitem__(self, key: Any) -> Any:
        self.log.record("r", self.name, self._rows(key))
        return self.array[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self.log.record("w", self.name, self._rows(key))
        self.array[key] = value


class WrongParityHalo(TrackedField):
    """Mailbox fault injection: during ``epoch``, reads are served from the
    other halo parity — the buffer producers are writing that iteration."""

    def __init__(self, array: Field, log: AccessLog, epoch: int) -> None:
        super().__init__("halo", array, log)
        self.epoch = epoch

    def __getitem__(self, key: Any) -> Any:
        if self.log.epoch == self.epoch:
            key = (key + self.shape[0] // 2) % self.shape[0]
        return super().__getitem__(key)


class EpochBarrier:
    """A worker's barrier; each passage advances its AccessLog's epoch.

    Barrier fault injection: wait number ``skip`` (counted from 0) returns
    at once, and the next call passes the barrier twice to restore parity.
    """

    def __init__(
        self, barrier: PhaseBarrier, log: AccessLog, skip: int | None = None
    ) -> None:
        self.barrier = barrier
        self.log = log
        self.skip = skip
        self.calls = 0

    def wait(self, timeout: float | None = None) -> int:
        call, self.calls = self.calls, self.calls + 1
        if call == self.skip:
            return 0
        for _ in range(2 if call - 1 == self.skip else 1):
            index = self.barrier.wait(timeout)
            self.log.epoch += 1
        return index

    def abort(self) -> None:
        self.barrier.abort()


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault site: which worker, which iteration."""

    worker: int
    iteration: int = 0

    @classmethod
    def from_seed(cls, seed: int, num_workers: int) -> "FaultSpec":
        """Seeded fault site: the worker is drawn, the iteration is the
        first (always executed, so the detector test cannot flake)."""
        rng = np.random.default_rng(seed)
        return cls(worker=int(rng.integers(num_workers)), iteration=0)


@dataclass(frozen=True)
class RaceFinding:
    """One detected protocol violation."""

    rule: str  # "same-epoch-overlap" | "unpublished-read"
    array: str
    epoch: int
    workers: tuple[int, ...]
    indices: tuple[int, ...]  # offending slice sample (sorted, capped)

    def render(self) -> str:
        sample = ", ".join(map(str, self.indices[:8]))
        more = "" if len(self.indices) <= 8 else f", ... ({len(self.indices)} total)"
        return (
            f"[{self.rule}] array={self.array!r} epoch={self.epoch} "
            f"workers={self.workers} indices=[{sample}{more}]"
        )


@dataclass
class SanitizerReport:
    """Outcome of one sanitized solve."""

    num_events: int
    num_workers: int
    findings: list[RaceFinding] = field(default_factory=list)
    fault: FaultSpec | None = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        head = (
            f"shm sanitizer: {self.num_events} events over "
            f"{self.num_workers} workers, {len(self.findings)} finding(s)"
            + (f", injected fault {self.fault}" if self.fault else "")
        )
        return "\n".join([head, *(f.render() for f in self.findings)])


def _cap(indices: Iterable[int], limit: int = 64) -> tuple[int, ...]:
    return tuple(sorted(indices)[:limit])


def analyze_events(
    events_by_worker: Mapping[int, list[AccessEvent]],
    fault: FaultSpec | None = None,
) -> SanitizerReport:
    """Check the merged per-worker logs against the barrier protocol."""
    merged = [event for events in events_by_worker.values() for event in events]
    findings: list[RaceFinding] = []

    by_array_epoch: dict[tuple[str, int], list[AccessEvent]] = {}
    for event in merged:
        by_array_epoch.setdefault((event.array, event.epoch), []).append(event)

    # Rule 1: cross-worker overlapping slices within one epoch, any write.
    for (array, epoch), group in sorted(by_array_epoch.items()):
        # Aggregate per worker: the union each worker wrote / read here.
        writes: dict[int, set[int]] = {}
        touches: dict[int, set[int]] = {}
        for event in group:
            touches.setdefault(event.worker, set()).update(event.indices)
            if event.kind == "w":
                writes.setdefault(event.worker, set()).update(event.indices)
        for writer, written in sorted(writes.items()):
            for other, touched in sorted(touches.items()):
                if other == writer:
                    continue
                overlap = written & touched
                if overlap:
                    findings.append(
                        RaceFinding(
                            rule="same-epoch-overlap",
                            array=array,
                            epoch=epoch,
                            workers=tuple(sorted((writer, other))),
                            indices=_cap(overlap),
                        )
                    )

    # Rule 2: halo reads must consume slots published in the previous epoch.
    for (array, epoch), group in sorted(by_array_epoch.items()):
        if array != "halo":
            continue
        published: set[int] = set()
        for event in by_array_epoch.get((array, epoch - 1), []):
            if event.kind == "w":
                published.update(event.indices)
        for event in group:
            if event.kind != "r":
                continue
            stale = set(event.indices) - published
            if stale:
                findings.append(
                    RaceFinding(
                        rule="unpublished-read",
                        array=array,
                        epoch=epoch,
                        workers=(event.worker,),
                        indices=_cap(stale),
                    )
                )

    # Deduplicate: a fault typically trips both views of the same overlap.
    unique = sorted(set(findings), key=lambda f: (f.rule, f.array, f.epoch, f.workers))
    return SanitizerReport(
        num_events=len(merged),
        num_workers=len(events_by_worker),
        findings=unique,
        fault=fault,
    )


class _Sanitized:
    """What the two sanitized engines share: the fault site of a solve,
    the tracked view of a worker's fields, and the audit of the event
    logs the workers send back."""

    #: How the engine's fault reads in logs and errors.
    _fault_kind = ""
    #: First iteration whose exchange the fault can corrupt.
    _first_fault_iteration = 0

    def __init__(
        self,
        workers: int | None = None,
        timeout: float = DEFAULT_ENGINE_TIMEOUT,
        fault_seed: int | None = None,
        fault: FaultSpec | None = None,
    ) -> None:
        super().__init__(workers=workers, timeout=timeout)  # type: ignore[call-arg]
        if fault is not None and fault_seed is not None:
            raise SanitizerError("pass either fault or fault_seed, not both")
        self._fault_seed = fault_seed
        self._fault = fault
        self._logger = get_logger("repro.engine.sanitize")

    def _fault_site(self, num_workers: int) -> FaultSpec | None:
        """The fault of a solve over ``num_workers`` workers: the explicit
        one, else drawn from the seed for *this* worker count."""
        if self._fault is not None or self._fault_seed is None:
            return self._fault
        seeded = FaultSpec.from_seed(self._fault_seed, num_workers)
        return FaultSpec(
            seeded.worker, max(seeded.iteration, self._first_fault_iteration)
        )

    def _prepare_solve(self, problem: Any, num_workers: int) -> None:
        fault = self._fault_site(num_workers)
        if fault is None:
            return
        if not 0 <= fault.worker < num_workers:
            raise SanitizerError(
                f"fault names worker {fault.worker} but only "
                f"{num_workers} workers run"
            )
        first = self._first_fault_iteration
        if fault.iteration < first:
            raise SanitizerError(
                f"{self._fault_kind} fault iteration must be >= {first}"
                + (f" (iteration {first - 1} consumes no halo)" if first else "")
            )
        self._logger.warning(
            "injecting %s fault: worker %d, iteration %d",
            self._fault_kind, fault.worker, fault.iteration,
        )

    def _tracked(
        self, num_workers: int, wid: int, fields: Mapping[str, Field], names: str
    ) -> tuple[AccessLog, dict[str, Field], FaultSpec | None]:
        """Worker ``wid``'s log, its fields with ``names`` tracked, and the
        solve's fault if it is this worker's to commit."""
        log = AccessLog(wid)
        tracked = dict(fields)
        for name in names.split():
            tracked[name] = TrackedField(name, fields[name], log)
        fault = self._fault_site(num_workers)
        mine = fault is not None and fault.worker == wid
        return log, tracked, fault if mine else None

    def _result_extras(
        self, payloads: dict[str, dict[int, Any]], num_workers: int
    ) -> dict[str, Any]:
        extras = super()._result_extras(payloads, num_workers)  # type: ignore[misc]
        fault = self._fault_site(num_workers)
        report = analyze_events(payloads.get("events", {}), fault=fault)
        if report.clean:
            self._logger.info(
                "shm sanitizer clean: %d events, 0 findings", report.num_events
            )
        elif fault is None:
            raise SanitizerError(report.render())
        else:
            self._logger.error("shm sanitizer findings:\n%s", report.render())
        extras["sanitizer"] = report
        extras["comm_counters"] = {
            **extras.get("comm_counters", {}),
            "sanitizer_events": report.num_events,
            "sanitizer_findings": len(report.findings),
        }
        return extras


class SanitizedMpEngine(_Sanitized, MpEngine):
    """The ``mp`` engine under the shm race sanitizer.

    Same worker loop, schedule and results; flux, halo and control-word
    accesses are logged and the barrier protocol checked post-solve. The
    CMFD ``currents``/``factors`` fields are handed over raw: they are
    parent-synchronized single-writer cells (a worker writes only its own
    ``currents`` rows, only the parent writes ``factors``, both separated
    by barriers), so the barrier rules have nothing to say about them.
    The report lands on ``EngineResult.sanitizer``. ``fault_seed``/
    ``fault`` make one worker skip the mid-iteration barrier of one
    iteration; leave both unset for audits.
    """

    name = "mp-sanitize"
    _fault_kind = "barrier-skip"

    def _worker_view(
        self, num_workers: int, wid: int, fields: Mapping[str, Field], sync: Any
    ) -> tuple[Mapping[str, Field], Any, dict[str, Any]]:
        log, tracked, fault = self._tracked(
            num_workers, wid, fields, "phi phi_new halo control"
        )
        # The loop waits twice per iteration: 2k is iteration k's release,
        # 2k + 1 the barrier between its pack and its unpack.
        skip = None if fault is None else 2 * fault.iteration + 1
        return tracked, EpochBarrier(sync, log, skip), {"events": log.events}


class SanitizedAsyncMpEngine(_Sanitized, AsyncMpEngine):
    """The ``mp-async`` engine under the shm race sanitizer.

    Same worker loop, grant/mailbox schedule and results; flux and halo
    accesses are logged with the worker's local iteration as the epoch.
    The grant word, the sequence counters and the ``fission``/``prod``/
    CMFD fields are handed over raw: they are the synchronization cells
    themselves or single-writer cells ordered by the grant protocol, and
    their correctness is exactly what rule 2 checks through the halo.
    ``fault_seed``/``fault`` make one worker unpack one iteration from the
    wrong parity without waiting; that iteration must be >= 1 because
    iteration 0 consumes no halo.
    """

    name = "mp-async-sanitize"
    _fault_kind = "wrong-parity mailbox"
    _first_fault_iteration = 1

    def _worker_view(
        self, num_workers: int, wid: int, fields: Mapping[str, Field], sync: Any
    ) -> tuple[Mapping[str, Field], Any, dict[str, Any]]:
        grant = fields["grant"]
        log, tracked, fault = self._tracked(num_workers, wid, fields, "phi phi_new halo")
        faulted = None if fault is None else fault.iteration
        if faulted is not None:
            tracked["halo"] = WrongParityHalo(fields["halo"], log, faulted)

        def wait(array: Field, index: int, threshold: int, timeout: float,
                 desc: str) -> bool:
            if array is grant:
                log.epoch = threshold - 1  # grant t + 1 opens iteration t
            elif log.epoch == faulted:
                return False
            return bool(sync(array, index, threshold, timeout, desc))

        return tracked, wait, {"events": log.events}
