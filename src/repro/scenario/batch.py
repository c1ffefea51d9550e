"""Batched multi-state scenario driver: trace once, solve N states.

:func:`run_scenario_batch` executes every scenario state of a config
against ONE shared track laydown. The expensive phases are amortised:

* **tracking** happens exactly once (``laydowns_shared == S - 1``);
* on the single-domain numpy backend all states sweep through the
  widened scenario-axis kernel (:mod:`repro.scenario.batched`);
* on every other backend/engine — and always for decomposed solves — a
  per-state sequential fallback reuses the same laydown (single-domain:
  the shared :class:`~repro.tracks.generator.TrackGenerator`; decomposed:
  one :class:`~repro.parallel.driver.DecomposedSolver` rebound to each
  state's materials). The fallback is the equivalence oracle: batched
  results are bitwise-equal to it per state.

**States fan out over cores.** The states of a single-domain batch are
independent eigenproblems — nothing is exchanged until the reports are
written — so they are solved on ``W = min(states, CPUs this process may
run on)`` processes: the state list is cut into ``W`` contiguous,
count-balanced *shares*, ``W - 1`` forked workers take shares 1…W-1
(inheriting geometry, laydown and sweep plan copy-on-write, forked
*before* the caller builds any per-share table) and the caller solves
share 0 itself. Every share runs the one body :func:`_solve_share`;
``W = 1`` (one state, one usable CPU, no ``fork``, a daemonic caller) is
that body called inline. Nothing selects or sizes the fan-out but the
process's CPU affinity and the number of states. A worker sends its
finished share once, as the :class:`_Solved` list; one that dies or
raises fails the batch by name (DESIGN.md, "Fault model"). Each state's
report says how the work was cut (``scenario_shares`` /
``scenario_share`` counters, ``transport_solving/share_wait``).

Every state gets its own :class:`~repro.observability.record.RunReport`
under a batch manifest of parent hash + per-state perturbation hashes
(:func:`~repro.scenario.perturbation.batch_manifest`), so the serve
layer's report cache can answer later single-state requests per state.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, replace as dataclass_replace
from multiprocessing import connection
from typing import Callable

import numpy as np

from repro.engine.mp import _describe_exit
from repro.errors import ConfigError, ReproError, ScenarioError
from repro.geometry.extruded import ExtrudedGeometry
from repro.io.config import RunConfig, ScenarioConfig
from repro.io.logging_utils import get_logger
from repro.observability import Observation, RunManifest, RunReport
from repro.parallel.comm import CommStats
from repro.runtime.antmoc import (
    build_geometry,
    build_solver,
    resolve_tracking_cache,
    solver_keywords,
)
from repro.runtime.recording import record_solve, record_tracking
from repro.runtime.stages import StageName
from repro.scenario.batched import BatchedKeffSolver, BatchedSweep2D
from repro.scenario.perturbation import batch_manifest, scenario_materials
from repro.solver.backends import resolve_backend
from repro.solver.cmfd import coarse_mesh_for, coerce_cmfd, single_domain_accelerator
from repro.solver.keff import SolveResult
from repro.solver.solver import Workload, unit_fissile_mean
from repro.solver.source import SourceTerms
from repro.tracks.generator import TrackGenerator

#: Scenario-batch execution modes: ``auto`` batches when the resolved
#: backend supports the scenario axis (single-domain numpy), ``batched``
#: demands it, ``sequential`` forces the per-state oracle path.
BATCH_MODES = ("auto", "batched", "sequential")


@dataclass
class ScenarioState:
    """One solved state of a batch."""

    scenario: ScenarioConfig
    state_hash: str
    keff: float
    converged: bool
    num_iterations: int
    scalar_flux: np.ndarray
    fission_rates: np.ndarray
    run_report: RunReport


@dataclass
class BatchRunResult:
    """Everything a completed scenario batch produced."""

    parent_hash: str
    manifest: dict
    states: list[ScenarioState]
    #: True when the widened scenario-axis kernel swept the states.
    batched: bool
    #: Widened sweeps on the critical path — the most any share executed
    #: (0 on the sequential fallback).
    num_sweeps: int

    def state(self, name: str) -> ScenarioState:
        for state in self.states:
            if state.scenario.name == name:
                return state
        raise ScenarioError(f"batch has no state named {name!r}")

    def report(self) -> str:
        lines = [
            f"scenario batch: {len(self.states)} state(s), "
            f"{'batched' if self.batched else 'sequential'} sweeps"
        ]
        for state in self.states:
            lines.append(
                f"  {state.scenario.name:<24s} k-eff {state.keff:.6f} "
                f"({'converged' if state.converged else 'UNCONVERGED'}, "
                f"{state.num_iterations} iterations)"
            )
        return "\n".join(lines)


def _scenario_library(geometry):
    """Replacement-material lookup: the full C5G7 library overlaid with
    the geometry's own material instances (preferred, so substitutions
    resolve to objects already in the problem when possible)."""
    from repro.materials.c5g7 import c5g7_library

    library = dict(c5g7_library())
    library.update({m.name: m for m in geometry.fsr_materials})
    return library


@dataclass
class _Solved:
    """One state's finished solve, as its report needs it."""

    result: SolveResult
    fission_rates: np.ndarray
    solve_seconds: float
    workload: Workload
    #: The state's own traffic on a communicator shared by the batch.
    comm_stats: CommStats | None = None
    #: Index of the share (process) that solved this state.
    share: int = 0


def run_scenario_batch(
    config: RunConfig,
    *,
    mode: str = "auto",
    engine=None,
    tracking_cache=None,
    stage_hook: Callable[[str], None] | None = None,
) -> BatchRunResult:
    """Solve every scenario state of ``config`` over one track laydown.

    The keyword-only hosting hooks are those of
    :class:`~repro.runtime.antmoc.AntMocApplication`: ``engine`` injects a
    warm pooled engine for decomposed states, ``tracking_cache`` a shared
    cache (honoured only when the config enables caching), ``stage_hook``
    observes pipeline progress — each stage is announced exactly once for
    the whole batch, by the calling process. None of them sizes the
    fan-out of a single-domain batch (module docstring): that follows the
    CPU affinity and the number of states. Raises — with every forked
    worker already reaped and no partial result — when a share dies or
    raises.
    """
    if mode not in BATCH_MODES:
        raise ScenarioError(f"mode must be one of {BATCH_MODES} (got {mode!r})")
    cfg = config.validate()
    if not cfg.scenarios:
        raise ConfigError("run_scenario_batch needs a non-empty scenarios: block")
    logger = get_logger("repro.scenario", cfg.output.log_level)

    def hook(name: str) -> None:
        if stage_hook is not None:
            stage_hook(name)

    stage_seconds: dict[str, float] = {}
    t0 = time.perf_counter()
    hook(StageName.READ_CONFIGURATION.value)
    scenarios = list(cfg.scenarios)
    num_states = len(scenarios)
    identity = batch_manifest(cfg, scenarios)
    stage_seconds[StageName.READ_CONFIGURATION.value] = time.perf_counter() - t0

    t0 = time.perf_counter()
    hook(StageName.GEOMETRY_CONSTRUCTION.value)
    geometry = build_geometry(cfg)
    if isinstance(geometry, ExtrudedGeometry):
        raise ConfigError(
            "scenario batching is radial (2D) only in this reproduction; "
            "3D states must be solved individually"
        )
    library = _scenario_library(geometry)
    stage_seconds[StageName.GEOMETRY_CONSTRUCTION.value] = time.perf_counter() - t0

    decomposed = cfg.decomposition.nx * cfg.decomposition.ny > 1
    if decomposed and mode == "batched":
        raise ScenarioError(
            "the widened scenario-axis kernel is single-domain only; "
            "decomposed batches run the per-state sequential path"
        )
    cache = resolve_tracking_cache(cfg, tracking_cache)
    logger.info(
        "scenario batch: %d state(s) over geometry %s (%s)",
        num_states, cfg.geometry, "decomposed" if decomposed else "single-domain",
    )

    if decomposed:
        outcome = _run_decomposed(
            cfg, geometry, scenarios, library, cache, engine, hook, stage_seconds
        )
    else:
        outcome = _run_single_domain(
            cfg, geometry, scenarios, library, cache, mode, hook, stage_seconds
        )
    solved, tracking_timings, batched, num_sweeps, num_shares, share_wait = outcome

    t0 = time.perf_counter()
    hook(StageName.OUTPUT_GENERATION.value)
    base_manifest = RunManifest.collect(cfg)
    stage_seconds[StageName.OUTPUT_GENERATION.value] = time.perf_counter() - t0

    states: list[ScenarioState] = []
    for s, scenario in enumerate(scenarios):
        state = solved[s]
        result = state.result
        obs = Observation(
            manifest=dataclass_replace(
                base_manifest, config_hash=identity["states"][s]["state_hash"]
            )
        )
        for name, seconds in stage_seconds.items():
            obs.record(name, seconds)
        # The caller's stage lasts until its slowest sibling has answered.
        in_caller = num_shares > 0 and state.share == 0
        obs.record(
            StageName.TRANSPORT_SOLVING.value,
            state.solve_seconds + (share_wait if in_caller else 0.0),
        )
        if in_caller:
            obs.record(f"{StageName.TRANSPORT_SOLVING.value}/share_wait", share_wait)
        record_tracking(obs, tracking_timings, cache_enabled=cache is not None)
        record_solve(obs, result, state.workload, state.comm_stats)
        obs.count("scenarios_total", num_states)
        obs.count("scenarios_batched", num_states if batched else 0)
        obs.count("laydowns_shared", num_states - 1)
        obs.count("sweeps_batched", num_sweeps)
        if num_shares:
            obs.count("scenario_shares", num_shares)
            obs.count("scenario_share", state.share)
        report = obs.build_report(
            result.keff, result.converged, result.num_iterations,
            dominance_ratio=result.monitor.dominance_ratio,
        )
        states.append(
            ScenarioState(
                scenario=scenario,
                state_hash=identity["states"][s]["state_hash"],
                keff=result.keff,
                converged=result.converged,
                num_iterations=result.num_iterations,
                scalar_flux=result.scalar_flux,
                fission_rates=state.fission_rates,
                run_report=report,
            )
        )
    return BatchRunResult(
        parent_hash=identity["parent_hash"],
        manifest=identity,
        states=states,
        batched=batched,
        num_sweeps=num_sweeps,
    )


def _run_single_domain(cfg, geometry, scenarios, library, cache, mode, hook, stage_seconds):
    tracking, limits, sweep = solver_keywords(cfg, cache)
    t0 = time.perf_counter()
    hook(StageName.TRACK_GENERATION.value)
    trackgen = TrackGenerator(geometry, **tracking).generate()
    stage_seconds[StageName.TRACK_GENERATION.value] = time.perf_counter() - t0

    backend_name = resolve_backend(sweep["backend"]).name
    use_batched = mode != "sequential" and backend_name == "numpy"
    if mode == "batched" and not use_batched:
        raise ScenarioError(
            "the widened scenario-axis kernel needs the numpy backend "
            f"(resolved backend: {backend_name!r})"
        )

    materials = [
        scenario_materials(geometry.fsr_materials, scenario, library)
        for scenario in scenarios
    ]
    hook(StageName.TRANSPORT_SOLVING.value)
    # Built once, before any fork: every share sweeps this plan.
    trackgen.sweep_plan()
    solve = functools.partial(
        _solve_share, cfg, geometry, cache, trackgen, limits, sweep, use_batched, materials
    )
    shares = _cut_shares(len(scenarios), _share_count(len(scenarios)))
    outcomes, share_wait = _fan_out(solve, shares)
    solved = []
    for index, (states, _) in enumerate(outcomes):
        for state in states:
            state.share = index
        solved.extend(states)
    # The critical path: however the states were cut, the batch sweeps
    # until its slowest state has converged.
    num_sweeps = max(sweeps for _, sweeps in outcomes)
    return solved, [trackgen.timings], use_batched, num_sweeps, len(shares), share_wait


def _solve_share(
    cfg, geometry, cache, trackgen, limits, sweep, use_batched, materials, lo, hi
):
    """Solve one share of a single-domain batch: states ``[lo, hi)`` of
    the per-state material lists, over the shared laydown. The only place
    a single-domain state is solved — inline in the caller and as every
    forked worker's body. Returns ``(solved states, widened sweeps
    executed)``; the seconds each state reports are its share's own.
    """
    materials = materials[lo:hi]
    if not use_batched:
        solved = []
        for mats in materials:
            t0 = time.perf_counter()
            solver = build_solver(cfg, geometry, cache=cache, trackgen=trackgen, materials=mats)
            result = solver.solve()
            seconds = time.perf_counter() - t0
            solved.append(_Solved(result, solver.fission_rates(result), seconds, solver.workload))
        return solved, 0
    t0 = time.perf_counter()
    volumes = trackgen.fsr_volumes
    terms_list = [SourceTerms(list(mats)) for mats in materials]
    sweeper = BatchedSweep2D(trackgen, terms_list, sweep["evaluator"])
    accelerators = None
    options = coerce_cmfd(sweep["cmfd"])
    if options is not None:
        mesh = coarse_mesh_for(geometry, options)
        sweeper.enable_cmfd_tally(mesh.cellmap)
        accelerators = [
            single_domain_accelerator(mesh, sweeper.state_view(s), terms, volumes, options)
            for s, terms in enumerate(terms_list)
        ]
    solver = BatchedKeffSolver(sweeper, volumes, **limits, accelerators=accelerators)
    results = solver.solve()
    share_seconds = time.perf_counter() - t0
    solved = [
        _Solved(
            result,
            unit_fissile_mean(result.fission_rates(terms, volumes)),
            share_seconds,
            solver.workload,
        )
        for result, terms in zip(results, terms_list)
    ]
    return solved, sweeper.timings.num_sweeps


#: How long a worker that has delivered its share gets to exit before it
#: is killed.
REAP_TIMEOUT_S = 10.0


def _share_count(num_states: int) -> int:
    """Processes a batch of ``num_states`` independent solves runs on: one
    per CPU this process may run on, never more than states — and one
    where it cannot have forked children (no ``fork`` start method, or a
    daemonic caller)."""
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return min(num_states, cpus)


def _cut_shares(num_states: int, num_shares: int) -> list[tuple[int, int]]:
    """``num_shares`` contiguous ``[lo, hi)`` ranges over the state list,
    sizes differing by at most one (the larger ones first)."""
    base, extra = divmod(num_states, num_shares)
    bounds = [0]
    for share in range(num_shares):
        bounds.append(bounds[-1] + base + (share < extra))
    return list(zip(bounds, bounds[1:]))


def _share_main(conn, solve, lo, hi) -> None:
    """Body of a forked share worker: solve, send the outcome once, exit.
    A library error crosses as its class and message, anything else as a
    traceback; an exit without a message is reported by the caller."""
    try:
        message = ("done", solve(lo, hi))
    except ReproError as exc:
        message = ("raised", type(exc), str(exc))
    except Exception:  # the process boundary: the caller raises it by name
        logger = get_logger("repro.scenario")
        logger.error("scenario share [%d, %d) crashed", lo, hi)
        message = ("crashed", traceback.format_exc())
    conn.send(message)
    conn.close()


def _receive(process, conn, lo, hi):
    """One worker's ``(solved, sweeps)``; raises, naming the share, when
    the worker raised or went away. Waiting on the sentinel too is how a
    worker that died without a word is noticed at once."""
    share = f"scenario share [{lo}, {hi})"
    message = None
    if conn in connection.wait([conn, process.sentinel]):
        try:
            message = conn.recv()
        except EOFError:
            pass  # closed unsent: the worker is gone
    if message is None:
        process.join()
        raise ScenarioError(f"{share} died ({_describe_exit(process.exitcode)})")
    if message[0] == "raised":
        raise message[1](f"{share}: {message[2]}")
    if message[0] == "crashed":
        raise ScenarioError(f"{share} failed:\n{message[1]}")
    return message[1]


def _fan_out(solve, shares):
    """``solve(lo, hi)`` for every share: shares 1… on forked workers,
    share 0 here. Returns the outcomes in share order and the seconds the
    caller then waited for its slowest sibling.

    The workers are forked *before* the caller solves, so none inherits
    share 0's tables; each keeps the default signal dispositions and owns
    nothing that outlives it, so every exit path may simply kill it.
    """
    if len(shares) == 1:
        return [solve(*shares[0])], 0.0
    ctx = multiprocessing.get_context("fork")
    workers = []
    delivered = False
    try:
        for lo, hi in shares[1:]:
            ours, theirs = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_share_main,
                args=(theirs, solve, lo, hi),
                name=f"repro-scenario-share-{lo}-{hi}",
            )
            process.start()
            theirs.close()
            workers.append((process, ours, lo, hi))
        outcomes = [solve(*shares[0])]
        t0 = time.perf_counter()
        outcomes.extend(_receive(*worker) for worker in workers)
        delivered = True
        return outcomes, time.perf_counter() - t0
    finally:
        for process, conn, *_ in workers:
            conn.close()
            process.join(REAP_TIMEOUT_S if delivered else 0)
            if process.is_alive():
                process.kill()
                process.join()


def _run_decomposed(cfg, geometry, scenarios, library, cache, engine, hook, stage_seconds):
    t0 = time.perf_counter()
    hook(StageName.TRACK_GENERATION.value)
    solver = build_solver(cfg, geometry, cache=cache, engine=engine)
    stage_seconds[StageName.TRACK_GENERATION.value] = time.perf_counter() - t0

    hook(StageName.TRANSPORT_SOLVING.value)
    solved = []
    for scenario in scenarios:
        # Validate name matches against the *global* material set once; a
        # single subdomain legitimately may not contain the target.
        scenario_materials(geometry.fsr_materials, scenario, library)
        solver.rebind_materials(
            lambda sub, _s=scenario: scenario_materials(
                sub.fsr_materials, _s, library, require_match=False
            )
        )
        stats = solver.comm.stats
        before = (stats.messages_sent, stats.bytes_sent, stats.allreduce_calls)
        t0 = time.perf_counter()
        result = solver.solve()
        seconds = time.perf_counter() - t0
        # Comm stats accumulate across solves on one communicator: each
        # state reports its own delta.
        delta = CommStats(
            stats.messages_sent - before[0],
            stats.bytes_sent - before[1],
            stats.allreduce_calls - before[2],
        )
        solved.append(
            _Solved(result, solver.fission_rates(result), seconds, solver.workload, delta)
        )
    # No shares: a decomposed batch's states run on the engine's workers.
    return solved, solver.tracking_timings, False, 0, 0, 0.0
