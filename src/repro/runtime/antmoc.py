"""End-to-end ANT-MOC application: the five-stage pipeline of Fig. 2.

Drives a complete run from a :class:`~repro.io.config.RunConfig`:
configuration, geometry construction (C5G7 variants), track generation and
ray tracing, transport solving (single-domain or spatially decomposed),
and output generation — with per-stage timings recorded exactly as the
ANT-MOC artifact's run logs report them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.errors import ConfigError
from repro.geometry.c5g7 import C5G7Spec, build_c5g7_geometry
from repro.geometry.geometry import Geometry
from repro.io.config import RunConfig, load_config
from repro.io.logging_utils import StageTimer, get_logger
from repro.observability import Observation, RunManifest, RunReport
from repro.parallel.driver import DecomposedSolver
from repro.runtime.output import ascii_heatmap, pin_power_map, write_fission_rates_csv, write_vtk_structured_points
from repro.runtime.stages import PipelineState, StageName
from repro.solver.cmfd import resolve_cmfd_enabled
from repro.solver.expeval import evaluator_from_config
from repro.solver.keff import SolveResult
from repro.solver.solver import MOCSolver
from repro.tracks.cache import resolve_cache
from repro.materials.c5g7 import c5g7_library

if TYPE_CHECKING:
    from repro.engine import EngineResult

#: Registry of geometry builders addressable from config files. The mini
#: variants keep full material heterogeneity at test-friendly sizes. 3D
#: entries return :class:`~repro.geometry.extruded.ExtrudedGeometry` and
#: select the 3D solver path (with z-decomposition when ``nz > 1``).
GEOMETRY_BUILDERS = {
    "c5g7": lambda: build_c5g7_geometry(c5g7_library(), C5G7Spec()),
    "c5g7-mini": lambda: build_c5g7_geometry(
        c5g7_library(), C5G7Spec(pins_per_assembly=3, reflector_refinement=3)
    ),
    "c5g7-small": lambda: build_c5g7_geometry(
        c5g7_library(), C5G7Spec(pins_per_assembly=5, reflector_refinement=5)
    ),
    "c5g7-3d-mini": lambda: _build_c5g7_3d_mini(),
}


def _build_c5g7_3d_mini():
    from repro.geometry.c5g7 import build_c5g7_3d

    return build_c5g7_3d(
        c5g7_library(),
        C5G7Spec(
            pins_per_assembly=3, reflector_refinement=2,
            fuel_layers=2, reflector_layers=2,
        ),
    )


@dataclass
class AntMocRunResult:
    """Everything a completed run produced."""

    keff: float
    converged: bool
    num_iterations: int
    fission_rates: np.ndarray
    scalar_flux: np.ndarray
    timer: StageTimer
    pipeline: PipelineState
    decomposed: bool
    comm_bytes: int = 0
    #: Schema-versioned observability record (manifest, counters, spans).
    run_report: RunReport | None = None

    def report(self) -> str:
        lines = [
            f"k-effective : {self.keff:.6f}",
            f"converged   : {self.converged} ({self.num_iterations} iterations)",
            f"decomposed  : {self.decomposed}",
            "",
            self.timer.report(),
        ]
        return "\n".join(lines)


class AntMocApplication:
    """One configured ANT-MOC run.

    The keyword-only hosting hooks exist for :mod:`repro.serve`, which
    runs many applications inside one resident process. None of them may
    change what is solved — the manifest (and therefore the service's
    reuse keys) is collected from ``config`` alone:

    * ``engine`` — a pre-built :class:`~repro.engine.base.ExecutionEngine`
      instance used instead of resolving ``decomposition.engine`` by name,
      so a warm pooled engine (with its shared-memory arenas already
      mapped) serves the solve.
    * ``tracking_cache`` — a shared :class:`~repro.tracks.cache.TrackingCache`
      used instead of building one from the config. Only honoured when the
      config enables the cache; a host cannot switch caching on for a
      request that asked for it off.
    * ``stage_hook`` — called with each stage name as it begins, letting a
      host mirror pipeline progress (e.g. job lifecycle states) without
      touching the observation.
    """

    def __init__(
        self,
        config: RunConfig,
        *,
        engine=None,
        tracking_cache=None,
        stage_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config.validate()
        self.logger = get_logger("repro.antmoc", config.output.log_level)
        self.obs = Observation(manifest=RunManifest.collect(self.config))
        # The flat timer stays the run-log surface; it is the same object
        # the observation keeps in lock-step with its span tree.
        self.timer = self.obs.timer
        self.pipeline = PipelineState()
        self._engine_override = engine
        self._cache_override = tracking_cache
        self._stage_hook = stage_hook

    @contextmanager
    def _stage(self, name: str) -> Iterator[None]:
        """An observation stage, announced to the host's ``stage_hook``."""
        if self._stage_hook is not None:
            self._stage_hook(name)
        with self.obs.stage(name):
            yield

    @classmethod
    def from_config_file(cls, path: str | Path) -> "AntMocApplication":
        return cls(load_config(path))

    def _build_geometry(self) -> Geometry:
        name = self.config.geometry
        if name not in GEOMETRY_BUILDERS:
            raise ConfigError(
                f"unknown geometry {name!r}; available: {sorted(GEOMETRY_BUILDERS)}"
            )
        return GEOMETRY_BUILDERS[name]()

    def _tracking_cache(self):
        tracking = self.config.tracking
        if tracking.tracking_cache and self._cache_override is not None:
            return self._cache_override
        return resolve_cache(
            tracking.tracking_cache,
            tracking.cache_dir,
            lock_timeout=tracking.cache_lock_timeout,
        )

    def _engine_setting(self):
        """The ``engine`` argument for decomposed solver construction: a
        host-provided warm engine instance when one was injected (it flows
        through :func:`~repro.engine.registry.resolve_engine` unchanged),
        else the config's engine name."""
        if self._engine_override is not None:
            return self._engine_override
        return self.config.decomposition.engine

    def _cmfd_setting(self):
        """The ``cmfd`` argument for solver construction: the config's
        ``solver.cmfd`` block when the switch resolves to on (CLI override
        already folded into ``enabled``, then ``REPRO_CMFD``), else
        ``None`` — the unaccelerated path stays untouched."""
        cmfd = self.config.solver.cmfd
        return cmfd if resolve_cmfd_enabled(cmfd.enabled) else None

    def _record_tracking_phases(self, timings_list, cache_enabled: bool = False) -> None:
        """Break the track-generation stage down by pipeline phase.

        Rows are named ``track_generation/<phase>`` so :class:`StageTimer`
        excludes them from the total (the parent stage already counts this
        time); the observation mirrors them as child spans of the
        ``track_generation`` span. Decomposed runs sum the per-domain
        breakdowns. With the tracking cache enabled, per-generator
        hits/misses land in the run report's counters.
        """
        phases: dict[str, float] = {}
        cache_hits = 0
        for timings in timings_list:
            for phase, seconds in timings.as_dict().items():
                phases[phase] = phases.get(phase, 0.0) + seconds
            cache_hits += bool(timings.cache_hit)
        for phase, seconds in phases.items():
            if seconds > 0.0:
                self.obs.record(f"track_generation/{phase}", seconds)
        if cache_enabled:
            self.obs.count("tracking_cache_hits", cache_hits)
            self.obs.count("tracking_cache_misses", len(timings_list) - cache_hits)
        if cache_hits:
            self.logger.info(
                "tracking cache: %d of %d generators restored from cache",
                cache_hits, len(timings_list),
            )

    def _record_worker_timers(self, result) -> None:
        """Roll per-worker stage timers into the run log (``mp`` engine).

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
            self.obs.record_worker(worker_id, payload)
        parent = StageName.TRANSPORT_SOLVING.value
        for name, seconds in total.as_dict().items():
            self.timer.record(f"{parent}/{name}_sum", seconds)
        for name, seconds in peak.as_dict().items():
            self.timer.record(f"{parent}/{name}_max", seconds)
        self.logger.info(
            "engine %s: %d worker(s), sweep sum %.4fs / max %.4fs",
            getattr(result, "engine", "?"),
            getattr(result, "num_workers", 1),
            total.duration("worker_sweep"),
            peak.duration("worker_sweep"),
        )

    def _record_solve_phases(self, result) -> None:
        """Break transport solving down by kernel phase (single-domain).

        ``SolveResult.phase_seconds`` is measured inside the solve, so the
        rows nest under ``transport_solving`` in both the timer table and
        the span tree without breaking the children-fit invariant.
        """
        for phase, seconds in (getattr(result, "phase_seconds", None) or {}).items():
            if seconds > 0.0:
                self.obs.record(
                    f"{StageName.TRANSPORT_SOLVING.value}/{phase}", seconds
                )

    def _count_comm(self, stats) -> None:
        """Wire :class:`~repro.parallel.comm.CommStats` into the counters."""
        self.obs.count("halo_bytes", stats.bytes_sent)
        self.obs.count("halo_messages", stats.messages_sent)
        self.obs.count("allreduce_calls", stats.allreduce_calls)

    def _count_engine_comm(self, result) -> None:
        """Engine-side counters (``mp-async`` mailbox waits/overlap).

        These describe *how* the engine ran, not the workload — they are
        timing-dependent and engine-specific, so cross-engine equivalence
        tests exclude them the same way they exclude ``num_workers``.
        """
        for name, value in (getattr(result, "comm_counters", None) or {}).items():
            self.obs.count(name, value)

    def _count_workload(
        self,
        result,
        num_fsrs: int,
        num_domains: int,
        tracks_2d: int,
        segments_2d: int,
        tracks_3d: int = 0,
        segments_3d: int = 0,
    ) -> None:
        """Record the paper's workload terms for this solve.

        ``segments_swept`` counts directional traversals: two directions
        per swept segment per transport iteration, over the dimensionality
        actually swept (3D segments for extruded solves). The counts are
        derived from tracking products and iteration counts only, so every
        engine reports identical values for the same configuration.
        """
        self.obs.count("tracks_2d", tracks_2d)
        self.obs.count("segments_2d", segments_2d)
        self.obs.count("tracks_3d", tracks_3d)
        self.obs.count("segments_3d", segments_3d)
        swept = segments_3d if segments_3d else segments_2d
        self.obs.count("segments_swept", 2 * swept * result.num_iterations)
        self.obs.count("fsr_count", num_fsrs)
        self.obs.count("iteration_count", result.num_iterations)
        self.obs.count("moc_iterations", result.num_iterations)
        self.obs.count("num_domains", num_domains)
        self.obs.count("num_workers", getattr(result, "num_workers", 1))
        self._count_cmfd(result)

    def _count_cmfd(self, result) -> None:
        """CMFD accelerator terms: iteration counters land in the pinned
        counter set (always recorded, 0 when acceleration is off, so the
        with/without delta is a first-class regression diff); the coarse
        solve's wall time lands as a ``transport_solving/cmfd`` breakdown
        row (excluded from the total like every other breakdown)."""
        stats = getattr(result, "cmfd_stats", None) or {}
        self.obs.count("cmfd_solves", int(stats.get("cmfd_solves", 0)))
        self.obs.count("cmfd_iterations", int(stats.get("cmfd_iterations", 0)))
        seconds = float(stats.get("cmfd_seconds", 0.0))
        if seconds > 0.0:
            self.obs.record(
                f"{StageName.TRANSPORT_SOLVING.value}/cmfd", seconds
            )

    def run(self) -> AntMocRunResult:
        """Execute all five stages and return the result bundle."""
        cfg = self.config
        if cfg.scenarios:
            raise ConfigError(
                "config declares a scenarios: block; run it through "
                "solve-batch (repro.scenario.run_scenario_batch), not a "
                "single-state solve"
            )
        with self._stage(StageName.READ_CONFIGURATION.value):
            self.pipeline.complete(StageName.READ_CONFIGURATION, cfg)

        with self._stage(StageName.GEOMETRY_CONSTRUCTION.value):
            geometry = self._build_geometry()
            self.pipeline.complete(StageName.GEOMETRY_CONSTRUCTION, geometry)
        self.logger.info("geometry %s: %d FSRs", cfg.geometry, geometry.num_fsrs)

        from repro.geometry.extruded import ExtrudedGeometry

        if isinstance(geometry, ExtrudedGeometry):
            return self._run_3d(geometry)

        decomposed = cfg.decomposition.nx * cfg.decomposition.ny > 1
        comm_bytes = 0
        cache = self._tracking_cache()
        if decomposed:
            with self._stage(StageName.TRACK_GENERATION.value):
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
                    evaluator=evaluator_from_config(cfg.solver),
                    backend=cfg.solver.sweep_backend,
                    tracer=cfg.tracking.tracer,
                    cache=cache,
                    engine=self._engine_setting(),
                    workers=cfg.decomposition.workers or None,
                    timeout=cfg.decomposition.timeout,
                    pin_workers=cfg.decomposition.pin_workers,
                    cmfd=self._cmfd_setting(),
                )
                self.pipeline.complete(StageName.TRACK_GENERATION, solver)
            self._record_tracking_phases(
                [d.trackgen.timings for d in solver.domains],
                cache_enabled=cache is not None,
            )
            with self._stage(StageName.TRANSPORT_SOLVING.value):
                result: EngineResult | SolveResult = solver.solve()
                self.pipeline.complete(StageName.TRANSPORT_SOLVING, result)
            self._record_worker_timers(result)
            self._count_comm(solver.comm.stats)
            self._count_engine_comm(result)
            self._count_workload(
                result,
                num_fsrs=geometry.num_fsrs,
                num_domains=len(solver.domains),
                tracks_2d=sum(d.trackgen.num_tracks for d in solver.domains),
                segments_2d=sum(d.trackgen.num_segments for d in solver.domains),
            )
            rates = solver.fission_rates(result)  # type: ignore[arg-type]
            flux = result.scalar_flux
            comm_bytes = result.comm_bytes  # type: ignore[union-attr]
        else:
            with self._stage(StageName.TRACK_GENERATION.value):
                solver = MOCSolver.for_2d(
                    geometry,
                    num_azim=cfg.tracking.num_azim,
                    azim_spacing=cfg.tracking.azim_spacing,
                    num_polar=cfg.tracking.num_polar,
                    keff_tolerance=cfg.solver.keff_tolerance,
                    source_tolerance=cfg.solver.source_tolerance,
                    max_iterations=cfg.solver.max_iterations,
                    evaluator=evaluator_from_config(cfg.solver),
                    backend=cfg.solver.sweep_backend,
                    tracer=cfg.tracking.tracer,
                    cache=cache,
                    cmfd=self._cmfd_setting(),
                )
                self.pipeline.complete(StageName.TRACK_GENERATION, solver)
            self._record_tracking_phases(
                [solver.trackgen.timings], cache_enabled=cache is not None
            )
            with self._stage(StageName.TRANSPORT_SOLVING.value):
                result = solver.solve()
                self.pipeline.complete(StageName.TRANSPORT_SOLVING, result)
            self._record_solve_phases(result)
            self._count_workload(
                result,
                num_fsrs=geometry.num_fsrs,
                num_domains=1,
                tracks_2d=solver.trackgen.num_tracks,
                segments_2d=solver.trackgen.num_segments,
            )
            rates = solver.fission_rates(result)
            flux = result.scalar_flux

        with self._stage(StageName.OUTPUT_GENERATION.value):
            outputs: dict[str, str] = {}
            if cfg.output.fission_rates_path:
                write_fission_rates_csv(cfg.output.fission_rates_path, rates)
                outputs["csv"] = cfg.output.fission_rates_path
            if cfg.output.vtk_path and not decomposed:
                terms = solver.terms  # type: ignore[union-attr]
                grid = pin_power_map(
                    geometry, terms, flux, solver.volumes, nx=64, ny=64  # type: ignore[union-attr]
                )
                write_vtk_structured_points(cfg.output.vtk_path, grid)
                outputs["vtk"] = cfg.output.vtk_path
            self.pipeline.complete(StageName.OUTPUT_GENERATION, outputs)

        return AntMocRunResult(
            keff=result.keff,
            converged=result.converged,
            num_iterations=result.num_iterations,
            fission_rates=rates,
            scalar_flux=flux,
            timer=self.timer,
            pipeline=self.pipeline,
            decomposed=decomposed,
            comm_bytes=comm_bytes,
            run_report=self.obs.build_report(
                result.keff, result.converged, result.num_iterations,
                dominance_ratio=result.monitor.dominance_ratio,
            ),
        )

    def _run_3d(self, geometry3d) -> AntMocRunResult:
        """Stages 3-5 for an extruded geometry: direct 3D transport, with
        z-decomposition over simulated MPI when the config asks for
        ``nz > 1`` domains (the paper's operating mode)."""
        import numpy as np

        from repro.parallel.driver3d import ZDecomposedSolver

        cfg = self.config
        decomposed = cfg.decomposition.nz > 1
        comm_bytes = 0
        if cfg.decomposition.nx * cfg.decomposition.ny > 1:
            raise ConfigError(
                "3D geometries decompose axially in this reproduction; "
                "set decomposition nx = ny = 1 and use nz"
            )
        polar_spacing = cfg.tracking.polar_spacing
        cache = self._tracking_cache()
        if decomposed:
            requested = cfg.solver.storage_method
            if requested != "EXP":
                self.logger.warning(
                    "storage strategy override: requested=%r effective='EXP' "
                    "reason='z-decomposed solves (decomposition.nz=%d) trace "
                    "every 3D segment up front; solver.storage_method applies "
                    "to nz=1 only'",
                    requested, cfg.decomposition.nz,
                )
            with self._stage(StageName.TRACK_GENERATION.value):
                solver = ZDecomposedSolver(
                    geometry3d,
                    num_domains=cfg.decomposition.nz,
                    num_azim=cfg.tracking.num_azim,
                    azim_spacing=cfg.tracking.azim_spacing,
                    polar_spacing=polar_spacing,
                    num_polar=cfg.tracking.num_polar,
                    keff_tolerance=cfg.solver.keff_tolerance,
                    source_tolerance=cfg.solver.source_tolerance,
                    max_iterations=cfg.solver.max_iterations,
                    evaluator=evaluator_from_config(cfg.solver),
                    backend=cfg.solver.sweep_backend,
                    tracer=cfg.tracking.tracer,
                    cache=cache,
                    engine=self._engine_setting(),
                    workers=cfg.decomposition.workers or None,
                    timeout=cfg.decomposition.timeout,
                    pin_workers=cfg.decomposition.pin_workers,
                    cmfd=self._cmfd_setting(),
                )
                self.pipeline.complete(StageName.TRACK_GENERATION, solver)
            self._record_tracking_phases(
                [solver.radial.timings] + [d.trackgen.timings for d in solver.domains],
                cache_enabled=cache is not None,
            )
            with self._stage(StageName.TRANSPORT_SOLVING.value):
                result = solver.solve()
                self.pipeline.complete(StageName.TRANSPORT_SOLVING, result)
            self._record_worker_timers(result)
            self._count_comm(solver.comm.stats)
            self._count_engine_comm(result)
            self._count_workload(
                result,
                num_fsrs=geometry3d.num_fsrs,
                num_domains=solver.num_domains,
                tracks_2d=solver.radial.num_tracks,
                segments_2d=solver.radial.num_segments,
                tracks_3d=sum(d.trackgen.num_tracks_3d for d in solver.domains),
                segments_3d=sum(d.segments.num_segments for d in solver.domains),
            )
            comm_bytes = result.comm_bytes
            flux = result.scalar_flux
            rates = np.concatenate(
                [
                    dom.terms.fission_rate(
                        flux[dom.fsr_offset : dom.fsr_offset + dom.num_fsrs],
                        dom.volumes,
                    )
                    for dom in solver.domains
                ]
            )
        else:
            with self._stage(StageName.TRACK_GENERATION.value):
                solver = MOCSolver.for_3d(
                    geometry3d,
                    num_azim=cfg.tracking.num_azim,
                    azim_spacing=cfg.tracking.azim_spacing,
                    polar_spacing=polar_spacing,
                    num_polar=cfg.tracking.num_polar,
                    storage=cfg.solver.storage_method,
                    resident_memory_bytes=cfg.solver.resident_memory_bytes,
                    keff_tolerance=cfg.solver.keff_tolerance,
                    source_tolerance=cfg.solver.source_tolerance,
                    max_iterations=cfg.solver.max_iterations,
                    evaluator=evaluator_from_config(cfg.solver),
                    backend=cfg.solver.sweep_backend,
                    tracer=cfg.tracking.tracer,
                    cache=cache,
                    cmfd=self._cmfd_setting(),
                )
                self.pipeline.complete(StageName.TRACK_GENERATION, solver)
            self._record_tracking_phases(
                [solver.trackgen.timings], cache_enabled=cache is not None
            )
            with self._stage(StageName.TRANSPORT_SOLVING.value):
                result = solver.solve()
                self.pipeline.complete(StageName.TRANSPORT_SOLVING, result)
            self._record_solve_phases(result)
            self._count_workload(
                result,
                num_fsrs=geometry3d.num_fsrs,
                num_domains=1,
                tracks_2d=solver.trackgen.num_tracks,
                segments_2d=solver.trackgen.num_segments,
                tracks_3d=solver.trackgen.num_tracks_3d,
                segments_3d=solver.storage_strategy.reference_segments().num_segments,
            )
            flux = result.scalar_flux
            rates = solver.terms.fission_rate(flux, solver.volumes)
        fissile = rates > 0
        if fissile.any():
            rates = rates / rates[fissile].mean()
        with self._stage(StageName.OUTPUT_GENERATION.value):
            outputs: dict[str, str] = {}
            if cfg.output.fission_rates_path:
                write_fission_rates_csv(cfg.output.fission_rates_path, rates)
                outputs["csv"] = cfg.output.fission_rates_path
            self.pipeline.complete(StageName.OUTPUT_GENERATION, outputs)
        return AntMocRunResult(
            keff=result.keff,
            converged=result.converged,
            num_iterations=result.num_iterations,
            fission_rates=rates,
            scalar_flux=flux,
            timer=self.timer,
            pipeline=self.pipeline,
            decomposed=decomposed,
            comm_bytes=comm_bytes,
            run_report=self.obs.build_report(
                result.keff, result.converged, result.num_iterations,
                dominance_ratio=result.monitor.dominance_ratio,
            ),
        )

    def render_fission_map(self, result: AntMocRunResult, size: int = 48) -> str:
        """ASCII rendering of the fission-rate field (the Fig. 7 picture)."""
        from repro.geometry.extruded import ExtrudedGeometry

        geometry = self.pipeline.artifact(StageName.GEOMETRY_CONSTRUCTION)
        solver = self.pipeline.artifact(StageName.TRACK_GENERATION)
        if isinstance(solver, DecomposedSolver):
            raise ConfigError("fission map rendering is single-domain only")
        if isinstance(geometry, ExtrudedGeometry):
            raise ConfigError("fission map rendering is radial (2D) only")
        grid = pin_power_map(
            geometry, solver.terms, result.scalar_flux, solver.volumes, nx=size, ny=size
        )
        return ascii_heatmap(grid)
