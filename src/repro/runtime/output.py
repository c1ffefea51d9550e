"""Stage-5 output writers: fission rates as CSV, legacy VTK, ASCII maps.

The paper visualises the C5G7 fission-rate distribution with ParaView
(Fig. 7); the legacy-VTK structured-points writer here produces a file
ParaView opens directly. The ASCII heat map provides the same qualitative
picture (centre-peaked fission rates) without a display.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import SolverError
from repro.geometry.geometry import Geometry
from repro.solver.source import SourceTerms


def write_fission_rates_csv(
    path: str | Path, rates: np.ndarray, names: list[str] | None = None
) -> None:
    """Write per-FSR fission rates as ``fsr,name,rate`` rows."""
    rates = np.asarray(rates)
    lines = ["fsr,name,rate"]
    for i, rate in enumerate(rates):
        name = names[i] if names is not None else ""
        lines.append(f"{i},{name},{rate:.10e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def pin_power_map(
    geometry: Geometry,
    terms: SourceTerms,
    flux: np.ndarray,
    volumes: np.ndarray,
    nx: int,
    ny: int,
) -> np.ndarray:
    """Rasterise the fission-rate density onto an ``ny x nx`` grid.

    Each grid cell samples the FSR at its centre and evaluates the local
    fission-rate *density* ``sum_g sigma_f phi`` (volumes are only used to
    normalise the global mean). Row 0 is the bottom (smallest y).
    """
    if flux.shape[0] != geometry.num_fsrs:
        raise SolverError("flux does not match geometry FSR count")
    density = np.einsum("rg,rg->r", terms.sigma_f, flux)
    dx = geometry.width / nx
    dy = geometry.height / ny
    j, i = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    x = geometry.xmin + (i + 0.5) * dx
    y = geometry.ymin + (j + 0.5) * dy
    grid = density[geometry.flat.find_fsr_batch(x.ravel(), y.ravel())].reshape(ny, nx)
    positive = grid[grid > 0]
    if positive.size:
        grid = grid / positive.mean()
    return grid


def ascii_heatmap(grid: np.ndarray, width: int = 0) -> str:
    """Render a non-negative 2D field as an ASCII heat map (top row = +y)."""
    shades = " .:-=+*#%@"
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise SolverError("heat map needs a 2-D grid")
    vmax = grid.max()
    if vmax <= 0:
        vmax = 1.0
    lines = []
    for row in grid[::-1]:
        chars = [shades[min(int(v / vmax * (len(shades) - 1)), len(shades) - 1)] for v in row]
        lines.append("".join(chars))
    return "\n".join(lines)


def write_vtk_structured_points(
    path: str | Path,
    grid: np.ndarray,
    spacing: tuple[float, float] = (1.0, 1.0),
    name: str = "fission_rate",
) -> None:
    """Write a 2D scalar field as legacy-VTK STRUCTURED_POINTS (ASCII).

    The format ParaView reads for the Fig. 7-style visualisation.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise SolverError("VTK writer needs a 2-D grid")
    ny, nx = grid.shape
    lines = [
        "# vtk DataFile Version 3.0",
        f"{name} produced by the ANT-MOC reproduction",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} 1",
        "ORIGIN 0 0 0",
        f"SPACING {spacing[0]} {spacing[1]} 1",
        f"POINT_DATA {nx * ny}",
        f"SCALARS {name} double 1",
        "LOOKUP_TABLE default",
    ]
    for j in range(ny):
        lines.append(" ".join(f"{v:.8e}" for v in grid[j]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
