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

from repro.errors import ConfigError, ScenarioError, SolverError
from repro.io.config import RunConfig, ScenarioConfig
from repro.io.logging_utils import get_logger
from repro.observability import Observation, RunManifest, RunReport
from repro.runtime.stages import StageName
from repro.scenario.batched import BatchedKeffSolver, BatchedSweep2D
from repro.scenario.perturbation import (
    batch_manifest,
    scenario_materials,
    state_config_hash,
)
from repro.solver.cmfd import (
    CmfdAccelerator,
    CmfdProblem,
    bin_fsrs,
    build_coarse_mesh,
    coerce_cmfd,
    local_exit_destinations,
    mesh_spec_for,
    resolve_cmfd_enabled,
)
from repro.solver.expeval import evaluator_from_config
from repro.solver.source import SourceTerms

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


def _resolve_tracking_cache(cfg: RunConfig, override):
    """Mirror of ``AntMocApplication._tracking_cache``: a host-provided
    cache is honoured only when the config enables caching."""
    from repro.tracks.cache import resolve_cache

    tracking = cfg.tracking
    if tracking.tracking_cache and override is not None:
        return override
    return resolve_cache(
        tracking.tracking_cache,
        tracking.cache_dir,
        lock_timeout=tracking.cache_lock_timeout,
    )


def _normalized_rates(terms: SourceTerms, flux: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    rates = terms.fission_rate(flux, volumes)
    fissile = rates > 0.0
    if not fissile.any():
        raise SolverError("no fissile FSR carries a fission rate")
    return rates / rates[fissile].mean()


def run_scenario_batch(
    config: RunConfig,
    *,
    mode: str = "auto",
    engine=None,
    tracking_cache=None,
    stage_hook: Callable[[str], None] | None = None,
) -> BatchRunResult:
    """Solve every scenario state of ``config`` over one track laydown.

    The keyword-only hosting hooks mirror
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
    from repro.runtime.antmoc import GEOMETRY_BUILDERS

    if cfg.geometry not in GEOMETRY_BUILDERS:
        raise ConfigError(
            f"unknown geometry {cfg.geometry!r}; available: {sorted(GEOMETRY_BUILDERS)}"
        )
    geometry = GEOMETRY_BUILDERS[cfg.geometry]()
    from repro.geometry.extruded import ExtrudedGeometry

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
    cache = _resolve_tracking_cache(cfg, tracking_cache)
    evaluator = evaluator_from_config(cfg.solver)
    cmfd_cfg = cfg.solver.cmfd
    cmfd_setting = cmfd_cfg if resolve_cmfd_enabled(cmfd_cfg.enabled) else None
    logger.info(
        "scenario batch: %d state(s) over geometry %s (%s)",
        num_states, cfg.geometry, "decomposed" if decomposed else "single-domain",
    )

    if decomposed:
        outcome = _run_decomposed(
            cfg, geometry, scenarios, library, cache, evaluator,
            cmfd_setting, engine, hook, stage_seconds,
        )
    else:
        outcome = _run_single_domain(
            cfg, geometry, scenarios, library, cache, evaluator,
            cmfd_setting, mode, hook, stage_seconds,
        )
    results, rates, per_state_counters, tracking_rows, batched, num_sweeps = outcome

    t0 = time.perf_counter()
    hook(StageName.OUTPUT_GENERATION.value)
    base_manifest = RunManifest.collect(cfg)
    stage_seconds[StageName.OUTPUT_GENERATION.value] = time.perf_counter() - t0

    states: list[ScenarioState] = []
    for s, scenario in enumerate(scenarios):
        result = results[s]
        obs = Observation(
            manifest=dataclass_replace(
                base_manifest, config_hash=identity["states"][s]["state_hash"]
            )
        )
        for name, seconds in stage_seconds.items():
            obs.record(name, seconds)
        obs.record(
            StageName.TRANSPORT_SOLVING.value, per_state_counters[s]["solve_seconds"]
        )
        for row, seconds in tracking_rows:
            obs.record(row, seconds)
        for phase, seconds in (getattr(result, "phase_seconds", None) or {}).items():
            if seconds > 0.0:
                obs.record(f"{StageName.TRANSPORT_SOLVING.value}/{phase}", seconds)
        _record_state_counters(obs, result, per_state_counters[s], cfg)
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
                fission_rates=rates[s],
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


def _record_state_counters(obs: Observation, result, extra: dict, cfg: RunConfig) -> None:
    """The workload counters of one state, mirroring
    ``AntMocApplication._count_workload`` (plus the comm deltas the
    decomposed path measured per state)."""
    obs.count("tracks_2d", extra["tracks_2d"])
    obs.count("segments_2d", extra["segments_2d"])
    obs.count("tracks_3d", 0)
    obs.count("segments_3d", 0)
    obs.count("segments_swept", 2 * extra["segments_2d"] * result.num_iterations)
    obs.count("fsr_count", extra["fsr_count"])
    obs.count("iteration_count", result.num_iterations)
    obs.count("moc_iterations", result.num_iterations)
    obs.count("num_domains", extra["num_domains"])
    obs.count("num_workers", getattr(result, "num_workers", 1))
    stats = getattr(result, "cmfd_stats", None) or {}
    obs.count("cmfd_solves", int(stats.get("cmfd_solves", 0)))
    obs.count("cmfd_iterations", int(stats.get("cmfd_iterations", 0)))
    seconds = float(stats.get("cmfd_seconds", 0.0))
    if seconds > 0.0:
        obs.record(f"{StageName.TRANSPORT_SOLVING.value}/cmfd", seconds)
    if "halo_bytes" in extra:
        obs.count("halo_bytes", extra["halo_bytes"])
        obs.count("halo_messages", extra["halo_messages"])
        obs.count("allreduce_calls", extra["allreduce_calls"])
    for name, value in (getattr(result, "comm_counters", None) or {}).items():
        obs.counters.add(name, value)
    if extra.get("cache_enabled"):
        obs.count("tracking_cache_hits", extra["cache_hits"])
        obs.count("tracking_cache_misses", extra["cache_misses"])


def _tracking_rows(timings_list) -> list[tuple[str, float]]:
    """``track_generation/<phase>`` breakdown rows (summed, > 0 only)."""
    phases: dict[str, float] = {}
    for timings in timings_list:
        for phase, seconds in timings.as_dict().items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    return [
        (f"{StageName.TRACK_GENERATION.value}/{phase}", seconds)
        for phase, seconds in phases.items()
        if seconds > 0.0
    ]


def _run_single_domain(
    cfg, geometry, scenarios, library, cache, evaluator, cmfd_setting,
    mode, hook, stage_seconds,
):
    from repro.solver.backends import resolve_backend
    from repro.tracks.generator import TrackGenerator

    t0 = time.perf_counter()
    hook(StageName.TRACK_GENERATION.value)
    trackgen = TrackGenerator(
        geometry,
        num_azim=cfg.tracking.num_azim,
        azim_spacing=cfg.tracking.azim_spacing,
        num_polar=cfg.tracking.num_polar,
        tracer=cfg.tracking.tracer,
        cache=cache,
    ).generate()
    stage_seconds[StageName.TRACK_GENERATION.value] = time.perf_counter() - t0
    tracking_rows = _tracking_rows([trackgen.timings])
    cache_hits = int(bool(trackgen.timings.cache_hit))

    backend_name = resolve_backend(cfg.solver.sweep_backend).name
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
    num_states = len(scenarios)
    volumes = trackgen.fsr_volumes
    hook(StageName.TRANSPORT_SOLVING.value)
    if use_batched:
        t0 = time.perf_counter()
        terms_list = [SourceTerms(list(mats)) for mats in materials]
        sweeper = BatchedSweep2D(trackgen, terms_list, evaluator)
        accelerators: list = [None] * num_states
        options = coerce_cmfd(cmfd_setting)
        if options is not None:
            spec = mesh_spec_for(geometry, options)
            mesh = build_coarse_mesh(spec, [bin_fsrs(geometry, spec)])
            sweeper.enable_cmfd(
                mesh.cellmap, local_exit_destinations(sweeper.plan, mesh.cellmap)
            )
            accelerators = [
                CmfdAccelerator(
                    CmfdProblem(
                        mesh, terms.sigma_t, terms.sigma_s, terms.nu_sigma_f,
                        terms.chi, volumes, options,
                    ),
                    sweeper.state_view(s),
                    terms,
                    volumes,
                )
                for s, terms in enumerate(terms_list)
            ]
        solver = BatchedKeffSolver(
            sweeper,
            volumes,
            keff_tolerance=cfg.solver.keff_tolerance,
            source_tolerance=cfg.solver.source_tolerance,
            max_iterations=cfg.solver.max_iterations,
            accelerators=accelerators,
        )
        results = solver.solve()
        batch_seconds = time.perf_counter() - t0
        rates = [
            _normalized_rates(terms_list[s], results[s].scalar_flux, volumes)
            for s in range(num_states)
        ]
        solve_seconds = [batch_seconds] * num_states
        num_sweeps = sweeper.timings.num_sweeps
    else:
        from repro.solver.solver import MOCSolver

        results = []
        rates = []
        solve_seconds = []
        for mats in materials:
            t0 = time.perf_counter()
            solver = MOCSolver.for_2d(
                geometry,
                keff_tolerance=cfg.solver.keff_tolerance,
                source_tolerance=cfg.solver.source_tolerance,
                max_iterations=cfg.solver.max_iterations,
                evaluator=evaluator,
                backend=cfg.solver.sweep_backend,
                cmfd=cmfd_setting,
                trackgen=trackgen,
                materials=mats,
            )
            result = solver.solve()
            solve_seconds.append(time.perf_counter() - t0)
            results.append(result)
            rates.append(solver.fission_rates(result))
        num_sweeps = 0
    per_state = [
        {
            "solve_seconds": solve_seconds[s],
            "tracks_2d": trackgen.num_tracks,
            "segments_2d": trackgen.num_segments,
            "fsr_count": geometry.num_fsrs,
            "num_domains": 1,
            "cache_enabled": cache is not None,
            "cache_hits": cache_hits,
            "cache_misses": 1 - cache_hits,
        }
        for s in range(num_states)
    ]
    return results, rates, per_state, tracking_rows, bool(use_batched), num_sweeps


def _run_decomposed(
    cfg, geometry, scenarios, library, cache, evaluator, cmfd_setting,
    engine, hook, stage_seconds,
):
    from repro.parallel.driver import DecomposedSolver

    t0 = time.perf_counter()
    hook(StageName.TRACK_GENERATION.value)
    solver = DecomposedSolver(
        geometry,
        cfg.decomposition.nx,
        cfg.decomposition.ny,
        num_azim=cfg.tracking.num_azim,
        azim_spacing=cfg.tracking.azim_spacing,
        num_polar=cfg.tracking.num_polar,
        keff_tolerance=cfg.solver.keff_tolerance,
        source_tolerance=cfg.solver.source_tolerance,
        max_iterations=cfg.solver.max_iterations,
        evaluator=evaluator,
        backend=cfg.solver.sweep_backend,
        tracer=cfg.tracking.tracer,
        cache=cache,
        engine=engine if engine is not None else cfg.decomposition.engine,
        workers=cfg.decomposition.workers or None,
        timeout=cfg.decomposition.timeout,
        pin_workers=cfg.decomposition.pin_workers,
        cmfd=cmfd_setting,
    )
    stage_seconds[StageName.TRACK_GENERATION.value] = time.perf_counter() - t0
    tracking_rows = _tracking_rows([d.trackgen.timings for d in solver.domains])
    cache_hits = sum(bool(d.trackgen.timings.cache_hit) for d in solver.domains)

    hook(StageName.TRANSPORT_SOLVING.value)
    results = []
    rates = []
    per_state = []
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
        before = (stats.bytes_sent, stats.messages_sent, stats.allreduce_calls)
        t0 = time.perf_counter()
        result = solver.solve()
        seconds = time.perf_counter() - t0
        results.append(result)
        rates.append(solver.fission_rates(result))
        per_state.append(
            {
                "solve_seconds": seconds,
                "tracks_2d": sum(d.trackgen.num_tracks for d in solver.domains),
                "segments_2d": sum(d.trackgen.num_segments for d in solver.domains),
                "fsr_count": geometry.num_fsrs,
                "num_domains": len(solver.domains),
                # Comm stats accumulate across solves on one communicator:
                # each state reports its own delta.
                "halo_bytes": stats.bytes_sent - before[0],
                "halo_messages": stats.messages_sent - before[1],
                "allreduce_calls": stats.allreduce_calls - before[2],
                "cache_enabled": cache is not None,
                "cache_hits": cache_hits,
                "cache_misses": len(solver.domains) - cache_hits,
            }
        )
    return results, rates, per_state, tracking_rows, False, 0
