"""Reaction-rate tallies at assembly and pin granularity.

The paper's correctness comparison (Sec. 5.1) is on the *assembly
pin-wise fission rate*: per-pin rates grouped by assembly. This module
aggregates the per-FSR solver output to those granularities using the
geometry's spatial structure (no bookkeeping is threaded through the
solve — rates are re-binned by sampling FSR membership on a pin grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.geometry.geometry import Geometry
from repro.solver.source import SourceTerms


@dataclass(frozen=True)
class PinRates:
    """Pin-resolved fission rates over a regular pin grid.

    ``rates[j, i]`` is the (volume-integrated, unit-mean-normalised)
    fission rate of the pin at column ``i``, row ``j`` (row 0 at the
    bottom). Zero entries are unfueled pins (water, guide tubes).
    """

    rates: np.ndarray
    pin_pitch_x: float
    pin_pitch_y: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.rates.shape  # type: ignore[return-value]

    def normalized(self) -> np.ndarray:
        """Rates scaled to unit mean over fueled pins."""
        fueled = self.rates > 0
        if not fueled.any():
            raise SolverError("no fueled pin carries a fission rate")
        return self.rates / self.rates[fueled].mean()

    def peak(self) -> tuple[int, int, float]:
        """(i, j, value) of the hottest pin (normalised)."""
        norm = self.normalized()
        j, i = np.unravel_index(int(norm.argmax()), norm.shape)
        return int(i), int(j), float(norm[j, i])


def pin_fission_rates(
    geometry: Geometry,
    terms: SourceTerms,
    flux: np.ndarray,
    volumes: np.ndarray,
    pins_x: int,
    pins_y: int,
    samples_per_pin: int = 4,
) -> PinRates:
    """Integrate fission rates over a ``pins_x x pins_y`` grid.

    Each pin is sampled on a ``samples_per_pin^2`` sub-grid; each sample
    contributes its FSR's fission-rate *density* times the sample cell
    area, which converges to the exact volume integral as the sampling
    refines (and is exact when pin boundaries align with FSR boundaries
    radially, as in lattice geometries).
    """
    if flux.shape[0] != geometry.num_fsrs:
        raise SolverError("flux does not match geometry FSR count")
    if pins_x < 1 or pins_y < 1 or samples_per_pin < 1:
        raise SolverError("invalid pin grid")
    density = np.einsum("rg,rg->r", terms.sigma_f, flux)
    pitch_x = geometry.width / pins_x
    pitch_y = geometry.height / pins_y
    sub = samples_per_pin
    cell_area = (pitch_x / sub) * (pitch_y / sub)
    # Axes (sj, si, j, i): sample (sj, si) of pin (j, i), all in one query.
    sj, si, j, i = np.meshgrid(
        np.arange(sub), np.arange(sub), np.arange(pins_y), np.arange(pins_x), indexing="ij"
    )
    x = geometry.xmin + i * pitch_x + (si + 0.5) * pitch_x / sub
    y = geometry.ymin + j * pitch_y + (sj + 0.5) * pitch_y / sub
    sampled = density[geometry.flat.find_fsr_batch(x.ravel(), y.ravel())]
    # Each pin adds its samples in the scalar loop's order (sj, then si).
    total = np.zeros((pins_y, pins_x))
    for sample in sampled.reshape(sub * sub, pins_y, pins_x):
        total += sample
    rates = total * cell_area
    return PinRates(rates=rates, pin_pitch_x=pitch_x, pin_pitch_y=pitch_y)


def assembly_fission_rates(
    pin_rates: PinRates, assemblies_x: int, assemblies_y: int
) -> np.ndarray:
    """Sum pin rates into an ``assemblies_y x assemblies_x`` grid.

    The pin grid must divide evenly into the assembly grid.
    """
    ny, nx = pin_rates.shape
    if nx % assemblies_x or ny % assemblies_y:
        raise SolverError(
            f"pin grid {nx}x{ny} does not divide into "
            f"{assemblies_x}x{assemblies_y} assemblies"
        )
    step_x = nx // assemblies_x
    step_y = ny // assemblies_y
    out = np.zeros((assemblies_y, assemblies_x))
    for aj in range(assemblies_y):
        for ai in range(assemblies_x):
            block = pin_rates.rates[
                aj * step_y : (aj + 1) * step_y, ai * step_x : (ai + 1) * step_x
            ]
            out[aj, ai] = block.sum()
    return out


def compare_pin_rates(a: PinRates, b: PinRates) -> float:
    """Max relative deviation between two normalised pin-rate maps over
    commonly fueled pins — the Sec. 5.1 comparison metric."""
    if a.shape != b.shape:
        raise SolverError(f"pin grids differ: {a.shape} vs {b.shape}")
    na, nb = a.normalized(), b.normalized()
    fueled = (na > 0) & (nb > 0)
    if not fueled.any():
        raise SolverError("no commonly fueled pins")
    return float(np.max(np.abs(na[fueled] - nb[fueled]) / nb[fueled]))
