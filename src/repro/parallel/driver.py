"""The decomposed transport driver: Jacobi iteration over subdomains.

Runs the paper's stage-4 loop over a spatially decomposed 2D problem:
every subdomain sweeps from its stored incoming boundary flux, outgoing
interface fluxes are exchanged along the precomputed routing table, the
eigenvalue is updated from a global reduction, and the cycle repeats until
the fission source converges. One sweep per rank per iteration, boundary
flux updated at iteration boundaries — exactly the Point-Jacobi behaviour
described in Sec. 2.1.

*How* the iteration executes is delegated to a pluggable execution engine
(:mod:`repro.engine`): ``inproc`` runs every sweep sequentially through
the deterministic simulated communicator, ``mp`` distributes subdomains
over real OS worker processes with a shared-memory halo exchange. Both
produce identical results and traffic accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.constants import DEFAULT_ENGINE_TIMEOUT, DEFAULT_KEFF_TOL, DEFAULT_SOURCE_TOL
from repro.errors import DecompositionError, SolverError
from repro.geometry.decomposition import decompose_lattice_geometry
from repro.geometry.geometry import Geometry
from repro.parallel.exchange import match_interface_tracks
from repro.solver.cmfd import coarse_mesh_for, coerce_cmfd
from repro.solver.domain import Domain
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.keff import SolveResult
from repro.solver.solver import Workload, unit_fissile_mean
from repro.tracks.generator import TrackingTimings

if TYPE_CHECKING:
    from repro.engine import EngineResult


class DomainDriver:
    """What the two decomposed drivers share once their domains exist:
    the execution engine and its communicator, the iteration limits, the
    global CMFD mesh and the solver surface the run pipeline reads.
    A subclass lays out ``domains`` (rank order, each a
    :class:`~repro.solver.domain.Domain` with its tracks laid down, not
    yet built) and ``routes`` (the route table,
    :mod:`repro.parallel.exchange`) over the undecomposed ``geometry`` in
    its constructor, then calls :meth:`_finish`, which lays the domains out as
    contiguous global FSR blocks. Whoever sweeps a domain builds it, in a
    solve's start-up step (:meth:`~repro.engine.problem.DecomposedProblem.build`).
    """

    geometry: Any
    domains: Sequence[Domain]
    routes: np.ndarray

    def _finish(
        self, engine, workers, timeout,
        keff_tolerance, source_tolerance, max_iterations, cmfd,
    ) -> None:
        from repro.engine import resolve_engine

        offset = 0
        for dom in self.domains:
            dom.fsr_offset = offset
            offset += dom.num_fsrs
        self.num_fsrs_total = offset
        self.engine = resolve_engine(engine, workers=workers, timeout=timeout)
        self.comm = self.engine.create_communicator(len(self.domains))
        self.keff_tolerance = keff_tolerance
        self.source_tolerance = source_tolerance
        self.max_iterations = int(max_iterations)
        self._require_fissile()
        #: The CMFD options and the *global* coarse mesh across the
        #: decomposition (subdomains keep absolute coordinates), ``None``
        #: without acceleration. The mesh needs only the geometry; the
        #: coarse problem over it needs every domain's volumes and current
        #: tally, so each solve's start-up step builds it.
        self.cmfd_options = coerce_cmfd(cmfd)
        self.cmfd_mesh = (
            None if self.cmfd_options is None
            else coarse_mesh_for(self.geometry, self.cmfd_options, [d.geometry for d in self.domains])
        )

    def _require_fissile(self) -> None:
        if not any(np.any(d.terms.nu_sigma_f > 0) for d in self.domains):
            raise SolverError("no fissile region in any domain")

    @property
    def volumes(self) -> np.ndarray:
        """Global FSR volumes, in rank order: a radial domain's are known
        from its laydown, a z-slab's once a solve's start-up step built
        it."""
        return np.concatenate([d.volumes for d in self.domains])

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def fission_rates(self, result: SolveResult) -> np.ndarray:
        """Global per-FSR fission rates, unit mean over fissile FSRs."""
        flux = result.scalar_flux
        rates = [
            d.terms.fission_rate(flux[d.fsr_offset : d.fsr_offset + d.num_fsrs], d.volumes)
            for d in self.domains
        ]
        return unit_fissile_mean(np.concatenate(rates))


class DecomposedSolver(DomainDriver):
    """Spatially decomposed 2D MOC eigenvalue solver."""

    def __init__(
        self,
        geometry: Geometry,
        domains_x: int,
        domains_y: int,
        num_azim: int = 4,
        azim_spacing: float = 0.5,
        num_polar: int = 4,
        keff_tolerance: float = DEFAULT_KEFF_TOL,
        source_tolerance: float = DEFAULT_SOURCE_TOL,
        max_iterations: int = 500,
        backend: str | None = None,
        cache=None,
        engine: str = "inproc",
        workers: int | None = None,
        timeout: float = DEFAULT_ENGINE_TIMEOUT,
        cmfd=None,
    ) -> None:
        # The one exponential table, built before the laydown: a process
        # engine's workers inherit it, and a table built after the
        # laydown leaves each worker's peak ~1.5 MB higher on c3d-z2-mp.
        ExponentialEvaluator.shared()
        self.geometry = geometry
        self.domains = [
            Domain.radial(
                sub, num_azim=num_azim, azim_spacing=azim_spacing, num_polar=num_polar,
                cache=cache, backend=backend,
            )
            for sub in decompose_lattice_geometry(geometry, domains_x, domains_y)
        ]
        self.routes = match_interface_tracks([d.trackgen for d in self.domains])
        self._finish(
            engine, workers, timeout,
            keff_tolerance, source_tolerance, max_iterations, cmfd,
        )

    @property
    def tracking_timings(self) -> list[TrackingTimings]:
        return [d.trackgen.timings for d in self.domains]

    @property
    def workload(self) -> Workload:
        return Workload(
            num_fsrs=self.geometry.num_fsrs,
            num_domains=self.num_domains,
            tracks_2d=sum(d.trackgen.num_tracks for d in self.domains),
            segments_2d=sum(d.trackgen.num_segments for d in self.domains),
        )

    def solve(self) -> EngineResult:
        from repro.engine import DecomposedProblem

        return self.engine.solve(DecomposedProblem(self), self.comm)

    def rebind_materials(self, materials_for) -> None:
        """Re-point every domain at a new per-FSR material list while
        keeping the track laydown, sweep plans and interface routing.

        ``materials_for(sub_geometry)`` returns the new material list for
        one subdomain (a perturbed scenario state — tracking-invariant by
        construction). A domain built in this process (an ``inproc``
        solve's) has its boundary flux reset; the next solve's start-up
        step lays out fresh current tallies and builds the CMFD overlay
        over the new cross sections, so it is bitwise-equal to a freshly
        constructed solver over the same materials.
        """
        from repro.solver.source import SourceTerms

        for rank, dom in enumerate(self.domains):
            terms = SourceTerms(list(materials_for(dom.geometry)))
            if terms.num_regions != dom.num_fsrs:
                raise DecompositionError(
                    f"rebind materials cover {terms.num_regions} regions, "
                    f"domain {rank} has {dom.num_fsrs} FSRs"
                )
            dom.terms = terms
            if dom.sweeper is not None:
                dom.sweeper.terms = terms
                dom.sweeper.reset_fluxes()
        self._require_fissile()
