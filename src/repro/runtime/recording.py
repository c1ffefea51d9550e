"""What a run writes into its observation, as functions of the
:class:`~repro.observability.Observation`.

One single-state run (:class:`~repro.runtime.antmoc.AntMocApplication`)
and every state of a scenario batch (:mod:`repro.scenario.batch`) are
recorded by the same two calls: :func:`record_tracking` after the solver
is built and :func:`record_solve` after it has solved.
"""

from __future__ import annotations

import logging
from typing import Sequence

from repro.io.logging_utils import StageTimer
from repro.observability import Observation
from repro.parallel.comm import CommStats
from repro.runtime.stages import StageName
from repro.solver.keff import SolveResult
from repro.solver.solver import Workload
from repro.tracks.generator import TrackingTimings

_LOG = logging.getLogger("repro.antmoc")


def record_tracking(
    obs: Observation, timings_list: Sequence[TrackingTimings], cache_enabled: bool
) -> int:
    """Break the track-generation stage down by pipeline phase.

    Rows are named ``track_generation/<phase>`` so :class:`StageTimer`
    excludes them from the total (the parent stage already counts this
    time); the observation mirrors them as child spans of the
    ``track_generation`` span. Decomposed runs sum the per-domain
    breakdowns. With the tracking cache enabled, per-generator
    hits/misses land in the run report's counters; the hit count is
    returned.
    """
    phases: dict[str, float] = {}
    cache_hits = 0
    for timings in timings_list:
        for phase, seconds in timings.as_dict().items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        cache_hits += bool(timings.cache_hit)
    for phase, seconds in phases.items():
        if seconds > 0.0:
            obs.record(f"{StageName.TRACK_GENERATION.value}/{phase}", seconds)
    if cache_enabled:
        obs.count("tracking_cache_hits", cache_hits)
        obs.count("tracking_cache_misses", len(timings_list) - cache_hits)
    return cache_hits


def _record_worker_timers(obs: Observation, result: SolveResult) -> None:
    """Roll per-worker stage timers into the run log (``mp`` engines).

    Each worker stage contributes two ``transport_solving/…`` rows:
    ``_sum`` (total CPU seconds across workers) and ``_max`` (critical
    path — the slowest worker). Both are reported because on a balanced
    decomposition they differ by roughly the worker count; neither adds
    to the total (the parent stage already counts wall-clock time).
    """
    timers = getattr(result, "worker_timers", None)
    if not timers:
        return
    total = StageTimer()
    peak = StageTimer()
    for worker_id, payload in timers:
        total.merge(payload, mode="sum")
        peak.merge(payload, mode="max")
        obs.record_worker(worker_id, payload)
    parent = StageName.TRANSPORT_SOLVING.value
    for name, seconds in total.as_dict().items():
        obs.timer.record(f"{parent}/{name}_sum", seconds)
    for name, seconds in peak.as_dict().items():
        obs.timer.record(f"{parent}/{name}_max", seconds)
    _LOG.info(
        "engine %s: %d worker(s), sweep sum %.4fs / max %.4fs",
        getattr(result, "engine", "?"),
        getattr(result, "num_workers", 1),
        total.duration("worker_sweep"),
        peak.duration("worker_sweep"),
    )


def record_solve(
    obs: Observation,
    result: SolveResult,
    workload: Workload,
    comm_stats: CommStats | None = None,
) -> None:
    """Everything one finished solve adds to an observation. Each part is
    a no-op on the path that lacks its input, so every kind of run — and
    every state of a scenario batch, with its own ``comm_stats`` delta —
    is recorded by the same lines.

    * Kernel phases (``SolveResult.phase_seconds``; zero in a decomposed
      solve, where workers time their own sweeps) are measured inside the
      solve, so the rows nest under ``transport_solving`` in both the
      timer table and the span tree without breaking the children-fit
      invariant; the CMFD coarse solve's wall time lands the same way as
      ``transport_solving/cmfd``.
    * Per-worker stage timers (multi-process engines).
    * :class:`~repro.parallel.comm.CommStats` of a decomposed solve.
    * Engine-side counters (``mp-async`` mailbox waits/overlap, the
      sanitizers' audit counts). These describe *how* the engine ran, not
      the workload — they are timing-dependent and engine-specific, so
      cross-engine equivalence tests exclude them the same way they
      exclude ``num_workers``.
    * The paper's workload terms. ``segments_swept`` counts directional
      traversals: two directions per swept segment per transport
      iteration, over the dimensionality actually swept (3D segments for
      extruded solves). The counts are derived from tracking products and
      iteration counts only, so every engine reports identical values for
      the same configuration — including what the storage strategies
      did: ``tracks_3d_resident`` / ``tracks_3d_regenerated`` (extruded
      solves only) come from each domain's build-time resident set and
      the iteration count, never from a worker-side tally (``mp-async``
      discards a speculative sweep). The CMFD counters (solves, inner
      iterations, skipped steps, limited face-groups) are always recorded
      (0 when acceleration is off), so the with/without delta is a
      first-class regression diff.
    """
    parent = StageName.TRANSPORT_SOLVING.value
    for phase, seconds in result.phase_seconds.items():
        if seconds > 0.0:
            obs.record(f"{parent}/{phase}", seconds)
    _record_worker_timers(obs, result)
    if comm_stats is not None:
        obs.count("halo_bytes", comm_stats.bytes_sent)
        obs.count("halo_messages", comm_stats.messages_sent)
        obs.count("allreduce_calls", comm_stats.allreduce_calls)
    for name, value in getattr(result, "comm_counters", {}).items():
        obs.count(name, value)
    obs.count("tracks_2d", workload.tracks_2d)
    obs.count("segments_2d", workload.segments_2d)
    obs.count("tracks_3d", workload.tracks_3d)
    obs.count("segments_3d", workload.segments_3d)
    if workload.tracks_3d:
        temporary = workload.tracks_3d - workload.tracks_3d_resident
        obs.count("tracks_3d_resident", workload.tracks_3d_resident)
        obs.count("tracks_3d_regenerated", temporary * result.num_iterations)
    swept = workload.segments_3d if workload.segments_3d else workload.segments_2d
    obs.count("segments_swept", 2 * swept * result.num_iterations)
    obs.count("fsr_count", workload.num_fsrs)
    obs.count("iteration_count", result.num_iterations)
    obs.count("moc_iterations", result.num_iterations)
    obs.count("num_domains", workload.num_domains)
    obs.count("num_workers", getattr(result, "num_workers", 1))
    stats = result.cmfd_stats
    obs.count("cmfd_solves", int(stats.get("cmfd_solves", 0)))
    obs.count("cmfd_iterations", int(stats.get("cmfd_iterations", 0)))
    obs.count("cmfd_skips", int(stats.get("cmfd_skips", 0)))
    obs.count("cmfd_limited", int(stats.get("cmfd_limited", 0)))
    cmfd_seconds = float(stats.get("cmfd_seconds", 0.0))
    if cmfd_seconds > 0.0:
        obs.record(f"{parent}/cmfd", cmfd_seconds)
