"""End-to-end ANT-MOC application: the five-stage pipeline of Fig. 2.

Drives a complete run from a :class:`~repro.io.config.RunConfig`:
configuration, geometry construction (C5G7 variants), track generation and
ray tracing, transport solving (single-domain or spatially decomposed),
and output generation — with per-stage timings recorded exactly as the
ANT-MOC artifact's run logs report them.

The pipeline is written once. :func:`build_solver` is the only place a
run configuration becomes a solver (and the only place that chooses
which one); whatever it returns answers the
:class:`~repro.solver.solver.TransportSolver` surface, so
:meth:`AntMocApplication.run` and the recorders of
:mod:`repro.runtime.recording` never branch on the kind of run. A
scenario batch (:mod:`repro.scenario.batch`) calls the same builder and
recorders per state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.geometry.c5g7 import C5G7Spec, build_c5g7_3d, build_c5g7_geometry
from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.geometry import Geometry
from repro.io.config import RunConfig, load_config
from repro.io.logging_utils import StageTimer, get_logger
from repro.materials.c5g7 import c5g7_library
from repro.observability import Observation, RunManifest, RunReport
from repro.runtime.output import ascii_heatmap, pin_power_map, write_fission_rates_csv, write_vtk_structured_points
from repro.runtime.recording import record_solve, record_tracking
from repro.runtime.stages import PipelineState, StageName
from repro.solver.solver import MOCSolver, TransportSolver
from repro.tracks.cache import TrackingCache, resolve_cache

if TYPE_CHECKING:
    from repro.runtime.sweep_split import SplitRecord

#: Registry of geometry builders addressable from config files. The mini
#: variants keep full material heterogeneity at test-friendly sizes. 3D
#: entries return :class:`~repro.geometry.extruded.ExtrudedGeometry` and
#: select the 3D solver path (with z-decomposition when ``nz > 1``).
GEOMETRY_BUILDERS: dict[str, Callable[[], Geometry | ExtrudedGeometry]] = {
    "c5g7": lambda: build_c5g7_geometry(c5g7_library(), C5G7Spec()),
    "c5g7-mini": lambda: build_c5g7_geometry(
        c5g7_library(), C5G7Spec(pins_per_assembly=3, reflector_refinement=3)
    ),
    "c5g7-small": lambda: build_c5g7_geometry(
        c5g7_library(), C5G7Spec(pins_per_assembly=5, reflector_refinement=5)
    ),
    "c5g7-3d-mini": lambda: build_c5g7_3d(
        c5g7_library(),
        C5G7Spec(
            pins_per_assembly=3, reflector_refinement=2,
            fuel_layers=2, reflector_layers=2,
        ),
    ),
}

#: Why an output that needs a pin-power map can be refused.
PIN_POWER_LIMIT = "pin-power map is single-domain radial only"


def build_geometry(cfg: RunConfig) -> Geometry | ExtrudedGeometry:
    """The geometry a configuration names in :data:`GEOMETRY_BUILDERS`."""
    if cfg.geometry not in GEOMETRY_BUILDERS:
        raise ConfigError(
            f"unknown geometry {cfg.geometry!r}; available: {sorted(GEOMETRY_BUILDERS)}"
        )
    return GEOMETRY_BUILDERS[cfg.geometry]()


def resolve_tracking_cache(cfg: RunConfig) -> TrackingCache | None:
    """The tracking cache a configuration enables, or ``None``."""
    return resolve_cache(cfg.tracking.tracking_cache, cfg.tracking.cache_dir)


def solver_keywords(
    cfg: RunConfig, cache: TrackingCache | None
) -> tuple[dict[str, Any], dict[str, Any], dict[str, Any]]:
    """A run configuration as solver constructor keywords, in the three
    groups every solver kind shares: ``tracking`` (exactly the radial
    :class:`~repro.tracks.generator.TrackGenerator` keywords), iteration
    ``limits``, and ``sweep`` — the kernel backend and the ``solver.cmfd``
    block (its ``enabled`` switch decides;
    :func:`~repro.solver.cmfd.coerce_cmfd`). :func:`build_solver` is the
    consumer; the widened scenario sweep, which it cannot build
    (``repro.runtime`` does not import ``repro.scenario``), reads the same
    groups."""
    tracking = dict(
        num_azim=cfg.tracking.num_azim,
        azim_spacing=cfg.tracking.azim_spacing,
        num_polar=cfg.tracking.num_polar,
        cache=cache,
    )
    limits = dict(
        keff_tolerance=cfg.solver.keff_tolerance,
        source_tolerance=cfg.solver.source_tolerance,
        max_iterations=cfg.solver.max_iterations,
    )
    sweep = dict(
        backend=cfg.solver.sweep_backend,
        cmfd=cfg.solver.cmfd,
    )
    return tracking, limits, sweep


def build_solver(
    cfg: RunConfig,
    geometry: Geometry | ExtrudedGeometry,
    *,
    cache: TrackingCache | None,
    trackgen: Any = None,
    materials: Sequence[Any] | None = None,
) -> TransportSolver:
    """The solver a configuration describes over ``geometry``, chosen
    from what can be observed: an extruded geometry solves in 3D, and a
    decomposition grid larger than one domain (``nx * ny`` radially,
    ``nz`` axially) selects the decomposed driver of that dimension.

    ``trackgen`` and ``materials`` inject an already generated laydown and
    a perturbed per-FSR material list into the single-domain radial
    solver (scenario batches trace once and solve many states). A
    decomposed driver is imported where it is built: a single-domain run
    does not load one.
    """
    tracking, limits, sweep = solver_keywords(cfg, cache)
    decomposition = cfg.decomposition
    parallel: dict[str, Any] = dict(
        engine=decomposition.engine,
        workers=decomposition.workers or None,
        timeout=decomposition.timeout,
    )
    if isinstance(geometry, ExtrudedGeometry):
        if decomposition.nx * decomposition.ny > 1:
            raise ConfigError(
                "3D geometries decompose axially in this reproduction; "
                "set decomposition nx = ny = 1 and use nz"
            )
        # The axial laydown and what each domain keeps of it; the
        # resident budget is per domain (per z-slab when nz > 1).
        tracking.update(
            polar_spacing=cfg.tracking.polar_spacing,
            storage=cfg.solver.storage_method,
            resident_memory_bytes=cfg.solver.resident_memory_bytes,
        )
        if decomposition.nz > 1:
            from repro.parallel.driver3d import ZDecomposedSolver

            return ZDecomposedSolver(
                geometry, num_domains=decomposition.nz,
                **tracking, **limits, **sweep, **parallel,
            )
        return MOCSolver.for_3d(geometry, **tracking, **limits, **sweep)
    if decomposition.nx * decomposition.ny > 1:
        from repro.parallel.driver import DecomposedSolver

        return DecomposedSolver(
            geometry, decomposition.nx, decomposition.ny,
            **tracking, **limits, **sweep, **parallel,
        )
    return MOCSolver.for_2d(
        geometry, **tracking, **limits, **sweep, trackgen=trackgen, materials=materials
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
    #: How the sweeps ran: on one process or two, and why not two. It
    #: depends on the host (CPU affinity, how the process was started),
    #: so it stays out of the run report, which a served solve and a CLI
    #: solve of one config must share.
    sweep_split: SplitRecord | None = None
    #: Schema-versioned observability record (manifest, counters, spans).
    run_report: RunReport | None = None

    def report(self) -> str:
        lines = [
            f"k-effective : {self.keff:.6f}",
            f"converged   : {self.converged} ({self.num_iterations} iterations)",
            f"decomposed  : {self.decomposed}",
        ]
        if self.sweep_split is not None:
            lines.append(f"sweep       : {self.sweep_split.describe()}")
        lines += [
            "",
            self.timer.report(),
        ]
        return "\n".join(lines)


class AntMocApplication:
    """One configured ANT-MOC run — everything it solves, caches and maps
    comes from ``config``; a solve slot of :mod:`repro.serve` runs exactly
    this.

    ``stage_hook`` is called with each stage name as it begins, letting a
    host mirror pipeline progress (e.g. job lifecycle states) without
    touching the observation.
    """

    def __init__(
        self,
        config: RunConfig,
        *,
        stage_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config.validate()
        self.logger = get_logger("repro.antmoc", config.output.log_level)
        self.obs = Observation(manifest=RunManifest.collect(self.config))
        # The flat timer stays the run-log surface; it is the same object
        # the observation keeps in lock-step with its span tree.
        self.timer = self.obs.timer
        self.pipeline = PipelineState()
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

    def _pin_power_grid(self, flux: np.ndarray, size: int) -> np.ndarray | None:
        """The fission-rate density rasterised onto a ``size x size``
        grid, or ``None`` when this run cannot render one
        (:data:`PIN_POWER_LIMIT`)."""
        geometry = self.pipeline.artifact(StageName.GEOMETRY_CONSTRUCTION)
        solver = self.pipeline.artifact(StageName.TRACK_GENERATION)
        if not isinstance(solver, MOCSolver) or isinstance(geometry, ExtrudedGeometry):
            return None
        return pin_power_map(
            geometry, solver.terms, flux, solver.volumes, nx=size, ny=size
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
            geometry = build_geometry(cfg)
            self.pipeline.complete(StageName.GEOMETRY_CONSTRUCTION, geometry)
        self.logger.info("geometry %s: %d FSRs", cfg.geometry, geometry.num_fsrs)

        cache = resolve_tracking_cache(cfg)
        with self._stage(StageName.TRACK_GENERATION.value):
            solver = build_solver(cfg, geometry, cache=cache)
            self.pipeline.complete(StageName.TRACK_GENERATION, solver)
        cache_hits, lookups = record_tracking(
            self.obs, solver.tracking_timings, cache_enabled=cache is not None
        )
        if cache_hits:
            self.logger.info(
                "tracking cache: %d of %d generators restored from cache",
                cache_hits, lookups,
            )

        with self._stage(StageName.TRANSPORT_SOLVING.value):
            # Imported by the stage that uses it: start-up (every run's
            # setup time) does not pay for it.
            from repro.runtime.sweep_split import split_sweep

            with split_sweep(solver) as split:
                result = solver.solve()
            self.pipeline.complete(StageName.TRANSPORT_SOLVING, result)
        self.logger.info("sweep: %s", split.describe())
        comm = solver.comm
        record_solve(
            self.obs, result, solver.workload, comm.stats if comm is not None else None
        )
        rates = solver.fission_rates(result)

        with self._stage(StageName.OUTPUT_GENERATION.value):
            outputs: dict[str, str] = {}
            if cfg.output.fission_rates_path:
                write_fission_rates_csv(cfg.output.fission_rates_path, rates)
                outputs["csv"] = cfg.output.fission_rates_path
            if cfg.output.vtk_path:
                grid = self._pin_power_grid(result.scalar_flux, 64)
                if grid is None:
                    self.logger.warning(
                        "output dropped: vtk_path=%r reason=%r",
                        cfg.output.vtk_path, PIN_POWER_LIMIT,
                    )
                else:
                    write_vtk_structured_points(cfg.output.vtk_path, grid)
                    outputs["vtk"] = cfg.output.vtk_path
            self.pipeline.complete(StageName.OUTPUT_GENERATION, outputs)

        return AntMocRunResult(
            keff=result.keff,
            converged=result.converged,
            num_iterations=result.num_iterations,
            fission_rates=rates,
            scalar_flux=result.scalar_flux,
            timer=self.timer,
            pipeline=self.pipeline,
            decomposed=comm is not None,
            comm_bytes=getattr(result, "comm_bytes", 0),
            sweep_split=split,
            run_report=self.obs.build_report(
                result.keff, result.converged, result.num_iterations,
                dominance_ratio=result.monitor.dominance_ratio,
            ),
        )

    def render_fission_map(self, result: AntMocRunResult, size: int = 48) -> str:
        """ASCII rendering of the fission-rate field (the Fig. 7 picture)."""
        grid = self._pin_power_grid(result.scalar_flux, size)
        if grid is None:
            raise ConfigError(f"fission map rendering: {PIN_POWER_LIMIT}")
        return ascii_heatmap(grid)
