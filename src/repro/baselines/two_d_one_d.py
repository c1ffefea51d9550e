"""A 2D/1D coupled solver — the method class ANT-MOC competes against.

Table 1's incumbent codes (DeCART, NECP-X, MPACT, nTRACER) avoid direct
3D MOC by coupling *radial 2D MOC* per axial layer with a *1D axial*
solve, exchanging transverse leakage. This module implements that scheme
in its simplest textbook form:

* each axial layer runs the repo's own 2D MOC sweep over the shared
  radial tracking, with the layer's materials;
* the axial direction is closed with a per-radial-FSR 1D finite-difference
  diffusion current, whose divergence enters each layer's 2D source as a
  (possibly negative) transverse-leakage term;
* the eigenvalue updates from the global fission production.

The paper's criticism is reproduced faithfully: "transverse leakage may
result in a negative total source and computational instability"
(Sec. 2.2). When the leakage correction drives a layer source negative,
this solver clamps it to zero and counts the event
(:attr:`TwoDOneDResult.negative_source_events`), trading the instability
for a consistency error — exactly the kind of compromise the direct-3D
approach exists to avoid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.constants import FOUR_PI
from repro.errors import SolverError
from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.geometry import BoundaryCondition
from repro.solver.convergence import ConvergenceMonitor
from repro.solver.source import SourceTerms
from repro.solver.sweep2d import TransportSweep2D
from repro.tracks.generator import TrackGenerator


@dataclass
class TwoDOneDResult:
    """Outcome of a 2D/1D solve."""

    keff: float
    #: Scalar flux, shape (num_layers, radial_fsrs, groups).
    scalar_flux: np.ndarray
    converged: bool
    num_iterations: int
    solve_seconds: float
    #: How many (layer, fsr, group) sources were clamped from negative.
    negative_source_events: int


class TwoDOneDSolver:
    """Layer-wise 2D MOC coupled to axial 1D diffusion."""

    def __init__(
        self,
        geometry3d: ExtrudedGeometry,
        num_azim: int = 4,
        azim_spacing: float = 0.5,
        num_polar: int = 2,
        keff_tolerance: float = 1e-6,
        source_tolerance: float = 1e-5,
        max_iterations: int = 500,
        leakage_relaxation: float = 0.7,
        backend: str | None = None,
        cache=None,
    ) -> None:
        self.geometry3d = geometry3d
        radial = geometry3d.radial
        self.num_layers = geometry3d.num_layers
        # One shared radial tracking (the 2D/1D hallmark: 2D data only).
        self.trackgen = TrackGenerator(
            radial, num_azim=num_azim, azim_spacing=azim_spacing,
            num_polar=num_polar, cache=cache,
        ).generate()
        self.volumes_2d = self.trackgen.fsr_volumes
        self.heights = geometry3d.axial_mesh.heights
        # Per-layer source terms and sweeps (materials differ by layer).
        # All layer sweeps share the radial tracking, hence one sweep plan.
        self.layer_terms: list[SourceTerms] = []
        self.layer_sweeps: list[TransportSweep2D] = []
        nz = self.num_layers
        for layer in range(nz):
            materials = [
                geometry3d.fsr_material(r * nz + layer)
                for r in range(radial.num_fsrs)
            ]
            terms = SourceTerms(materials)
            self.layer_terms.append(terms)
            self.layer_sweeps.append(
                TransportSweep2D(self.trackgen, terms, backend=backend)
            )
        self.num_groups = self.layer_terms[0].num_groups
        self.keff_tolerance = keff_tolerance
        self.source_tolerance = source_tolerance
        self.max_iterations = int(max_iterations)
        if not (0.0 < leakage_relaxation <= 1.0):
            raise SolverError("leakage_relaxation must be in (0, 1]")
        self.leakage_relaxation = float(leakage_relaxation)
        if not any(np.any(t.nu_sigma_f > 0) for t in self.layer_terms):
            raise SolverError("no fissile material in any layer")

    # ------------------------------------------------------------- axial 1D

    def _axial_leakage(self, phi: np.ndarray) -> np.ndarray:
        """Transverse leakage density per (layer, radial FSR, group).

        Finite-difference diffusion currents between layer midplanes with
        D = 1 / (3 sigma_t); reflective faces carry zero current, vacuum
        faces an extrapolated outflow current.
        """
        nz, nr, ng = phi.shape
        leakage = np.zeros_like(phi)
        d = np.empty((nz, nr, ng))
        for k in range(nz):
            d[k] = 1.0 / (3.0 * self.layer_terms[k].sigma_t_safe)
        h = self.heights
        # interface currents J[k] between layer k-1 and k (positive up)
        currents = np.zeros((nz + 1, nr, ng))
        for k in range(1, nz):
            dz = 0.5 * (h[k - 1] + h[k])
            d_face = 2.0 * d[k - 1] * d[k] / (d[k - 1] + d[k])
            currents[k] = -d_face * (phi[k] - phi[k - 1]) / dz
        if self.geometry3d.boundary_zmin is BoundaryCondition.VACUUM:
            currents[0] = -phi[0] * d[0] / (0.5 * h[0] + 2.0 * d[0])
        if self.geometry3d.boundary_zmax is BoundaryCondition.VACUUM:
            currents[nz] = phi[nz - 1] * d[nz - 1] / (0.5 * h[nz - 1] + 2.0 * d[nz - 1])
        for k in range(nz):
            leakage[k] = (currents[k + 1] - currents[k]) / h[k]
        return leakage

    # --------------------------------------------------------------- solve

    def solve(self) -> TwoDOneDResult:
        start = time.perf_counter()
        nz, nr, ng = self.num_layers, self.trackgen.geometry.num_fsrs, self.num_groups
        phi = np.ones((nz, nr, ng))
        volumes = np.outer(self.heights, self.volumes_2d)  # (nz, nr)
        production = sum(
            self.layer_terms[k].fission_production(phi[k], volumes[k]) for k in range(nz)
        )
        if production <= 0.0:
            raise SolverError("initial flux produces no fission neutrons")
        phi /= production
        keff = 1.0
        leakage = np.zeros_like(phi)
        negative_events = 0
        monitor = ConvergenceMonitor(
            keff_tolerance=self.keff_tolerance, source_tolerance=self.source_tolerance
        )
        for _ in range(self.max_iterations):
            new_leakage = self._axial_leakage(phi)
            leakage = (
                self.leakage_relaxation * new_leakage
                + (1.0 - self.leakage_relaxation) * leakage
            )
            phi_new = np.empty_like(phi)
            for k in range(nz):
                terms = self.layer_terms[k]
                total = terms.total_source(phi[k], keff) - leakage[k]
                negatives = total < 0.0
                if negatives.any():
                    negative_events += int(negatives.sum())
                    total = np.clip(total, 0.0, None)
                reduced = total / (FOUR_PI * terms.sigma_t_safe)
                tally = self.layer_sweeps[k].sweep(reduced)
                phi_new[k] = self.layer_sweeps[k].finalize_scalar_flux(
                    tally, reduced, self.volumes_2d
                )
            new_production = sum(
                self.layer_terms[k].fission_production(phi_new[k], volumes[k])
                for k in range(nz)
            )
            if new_production <= 0.0:
                raise SolverError("fission production vanished")
            keff = keff * new_production
            phi = phi_new / new_production
            fission = np.concatenate(
                [self.layer_terms[k].fission_source(phi[k]) for k in range(nz)]
            )
            monitor.update(keff, fission)
            if monitor.converged:
                break
        return TwoDOneDResult(
            keff=keff,
            scalar_flux=phi,
            converged=monitor.converged,
            num_iterations=monitor.num_iterations,
            solve_seconds=time.perf_counter() - start,
            negative_source_events=negative_events,
        )
