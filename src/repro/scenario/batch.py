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

Every state gets its own :class:`~repro.observability.record.RunReport`
under a batch manifest of parent hash + per-state perturbation hashes
(:func:`~repro.scenario.perturbation.batch_manifest`), so the serve
layer's report cache can answer later single-state requests per state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable

import numpy as np

from repro.errors import ConfigError, ScenarioError
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
    #: Widened sweeps executed (0 on the sequential fallback).
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
    the whole batch.
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
    solved, tracking_timings, batched, num_sweeps = outcome

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
        obs.record(StageName.TRANSPORT_SOLVING.value, state.solve_seconds)
        record_tracking(obs, tracking_timings, cache_enabled=cache is not None)
        record_solve(obs, result, state.workload, state.comm_stats)
        obs.count("scenarios_total", num_states)
        obs.count("scenarios_batched", num_states if batched else 0)
        obs.count("laydowns_shared", num_states - 1)
        obs.count("sweeps_batched", num_sweeps)
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
    if use_batched:
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
        batch_seconds = time.perf_counter() - t0
        solved = [
            _Solved(
                result,
                unit_fissile_mean(result.fission_rates(terms, volumes)),
                batch_seconds,
                solver.workload,
            )
            for result, terms in zip(results, terms_list)
        ]
        return solved, [trackgen.timings], True, sweeper.timings.num_sweeps
    solved = []
    for mats in materials:
        t0 = time.perf_counter()
        solver = build_solver(cfg, geometry, cache=cache, trackgen=trackgen, materials=mats)
        result = solver.solve()
        seconds = time.perf_counter() - t0
        solved.append(_Solved(result, solver.fission_rates(result), seconds, solver.workload))
    return solved, [trackgen.timings], False, 0


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
    return solved, solver.tracking_timings, False, 0
