"""Cyclic 2D track laydown.

For each corrected azimuthal angle, tracks enter the rectangle through a
horizontal edge (``num_x`` of them) and through a vertical edge (``num_y``),
at uniform intercept spacing. With the cyclic angle correction this makes
every track's endpoint coincide with another track's endpoint under
reflection — the property that turns reflective boundary conditions into an
exact permutation of track ends (tested by
``tests/tracks/test_chains.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TrackingError
from repro.geometry.geometry import SIDES, Geometry
from repro.quadrature.azimuthal import AzimuthalQuadrature


def _chord_end(
    x: float, y: float, ux: float, uy: float,
    xmin: float, ymin: float, xmax: float, ymax: float,
) -> tuple[float, float, str]:
    """End point and exit side of the chord from (x, y) along (ux, uy)."""
    best_t = math.inf
    side = ""
    if ux > 1e-14:
        t = (xmax - x) / ux
        if t < best_t:
            best_t, side = t, "xmax"
    elif ux < -1e-14:
        t = (xmin - x) / ux
        if t < best_t:
            best_t, side = t, "xmin"
    if uy > 1e-14:
        t = (ymax - y) / uy
        if t < best_t:
            best_t, side = t, "ymax"
    elif uy < -1e-14:
        t = (ymin - y) / uy
        if t < best_t:
            best_t, side = t, "ymin"
    if not math.isfinite(best_t) or best_t <= 0.0:
        raise TrackingError(f"degenerate chord from ({x}, {y}) along ({ux}, {uy})")
    return x + best_t * ux, y + best_t * uy, side


def lay_tracks(
    geometry: Geometry, quadrature: AzimuthalQuadrature
) -> dict[str, np.ndarray]:
    """Lay cyclic 2D tracks over the geometry bounding box.

    Returns the laydown columns of a
    :class:`~repro.tracks.table2d.TrackTable2D`, keyed by its parameter
    names: ``xyxy`` end points, ``phi`` and its ``direction``
    ``(cos, sin)``, ``azim``, ``index_in_azim``, ``start_side`` /
    ``end_side`` (indices into :data:`~repro.geometry.geometry.SIDES`)
    and ``length``. Every float is computed here as a ``math`` scalar —
    ``np.hypot`` / ``np.cos`` are not bitwise the same functions — so the
    columns hold exactly what the sweep and the 3D laydown were always fed.

    Tracks are ordered by azimuthal index, then by position. For
    angles in the first quadrant (``phi < pi/2``) tracks start on the
    bottom edge (left portion) and the left edge; second-quadrant angles
    mirror to the bottom-right and right edges. All tracks are directed
    with ``sin(phi) > 0`` (upward), so every start point lies on the
    bottom or a vertical edge.
    """
    xmin, ymin, xmax, ymax = geometry.bounds
    width = xmax - xmin
    height = ymax - ymin
    if not (
        math.isclose(quadrature.width, width, rel_tol=1e-12)
        and math.isclose(quadrature.height, height, rel_tol=1e-12)
    ):
        raise TrackingError(
            "quadrature was corrected for a different domain size "
            f"({quadrature.width} x {quadrature.height} vs {width} x {height})"
        )

    side_code = {name: code for code, name in enumerate(SIDES)}
    rows = []
    for a in range(quadrature.num_angles):
        phi = float(quadrature.phi[a])
        ux, uy = math.cos(phi), math.sin(phi)
        nx = int(quadrature.num_x[a])
        ny = int(quadrature.num_y[a])
        dx = width / nx
        dy = height / ny
        starts: list[tuple[float, float, str]] = []
        if ux > 0.0:
            # Bottom edge, then left edge (entering from x = xmin).
            for i in range(nx):
                starts.append((xmin + (nx - i - 0.5) * dx, ymin, "ymin"))
            for jj in range(ny):
                starts.append((xmin, ymin + (jj + 0.5) * dy, "xmin"))
        else:
            # Bottom edge, then right edge (entering from x = xmax).
            for i in range(nx):
                starts.append((xmin + (i + 0.5) * dx, ymin, "ymin"))
            for jj in range(ny):
                starts.append((xmax, ymin + (jj + 0.5) * dy, "xmax"))
        for index_in_azim, (sx, sy, start_side) in enumerate(starts):
            ex, ey, end_side = _chord_end(sx, sy, ux, uy, xmin, ymin, xmax, ymax)
            rows.append((
                sx, sy, ex, ey, phi, ux, uy, a, index_in_azim,
                side_code[start_side], side_code[end_side],
                math.hypot(ex - sx, ey - sy),
            ))
    x0, y0, x1, y1, phis, uxs, uys, azim, index, start, end, length = (
        np.array(column) for column in zip(*rows)
    )
    return {
        "xyxy": np.column_stack((x0, y0, x1, y1)),
        "phi": phis,
        "direction": np.column_stack((uxs, uys)),
        "azim": azim,
        "index_in_azim": index,
        "start_side": start,
        "end_side": end,
        "length": length,
    }
