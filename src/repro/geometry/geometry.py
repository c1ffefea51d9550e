"""The root radial geometry: FSR enumeration and point/ray queries.

A :class:`Geometry` roots a hierarchy of lattices and universes inside a
rectangular bounding box with per-side boundary conditions. It provides the
two queries the tracker needs:

* :meth:`Geometry.find_fsr` — which flat source region contains a point;
* :meth:`Geometry.distance_to_boundary` — how far a ray can travel from a
  point before crossing any surface of the local cell, lattice walls, or
  the domain boundary.

Both are answered by the flat view :attr:`Geometry.flat`, compiled once at
construction (:mod:`repro.geometry.flat`); a tree it cannot lower is a
:class:`~repro.errors.GeometryError` there. The object-by-object tree walks
(:meth:`Geometry._find_fsr_tree`, :meth:`Geometry._distance_to_boundary_tree`)
are kept only as the oracle the flat view is tested against.

Flat source regions are enumerated eagerly from the hierarchy, keyed by the
traversal path (lattice indices and cell ids), so FSR ids are dense, stable
and independent of tracking parameters.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Union as TypingUnion

from repro.errors import GeometryError
from repro.geometry.flat import FlatGeometry, compile_flat
from repro.geometry.lattice import Lattice
from repro.geometry.universe import Universe
from repro.materials.material import Material

#: Nodes of the geometry hierarchy.
Node = TypingUnion[Universe, Lattice]


class BoundaryCondition(Enum):
    """Boundary condition on one side of the geometry bounding box."""

    REFLECTIVE = "reflective"
    VACUUM = "vacuum"
    PERIODIC = "periodic"
    #: Internal subdomain interface: outgoing flux is exchanged with a
    #: neighbouring domain (spatial decomposition, Sec. 3.2).
    INTERFACE = "interface"


#: Side names in the order (xmin, xmax, ymin, ymax).
SIDES = ("xmin", "xmax", "ymin", "ymax")


class Geometry:
    """Radial 2D geometry: a root node clipped to a rectangle.

    Parameters
    ----------
    root:
        A :class:`Universe` or :class:`Lattice`. A lattice root defines the
        bounding box implicitly; a universe root requires ``bounds``.
    bounds:
        ``(xmin, ymin, xmax, ymax)`` when the root is a universe.
    boundary:
        Mapping from side name (``"xmin"``, ``"xmax"``, ``"ymin"``,
        ``"ymax"``) to :class:`BoundaryCondition`. Defaults to reflective
        everywhere (the infinite-lattice configuration).
    """

    def __init__(
        self,
        root: Node,
        bounds: tuple[float, float, float, float] | None = None,
        boundary: dict[str, BoundaryCondition] | None = None,
        name: str = "geometry",
    ) -> None:
        self.root = root
        self.name = name
        if isinstance(root, Lattice):
            xmin, ymin, xmax, ymax = root.bounds
            if bounds is not None and tuple(bounds) != (xmin, ymin, xmax, ymax):
                raise GeometryError("explicit bounds disagree with root lattice bounds")
        else:
            if bounds is None:
                raise GeometryError("a universe-rooted geometry requires explicit bounds")
            xmin, ymin, xmax, ymax = bounds
        if not (xmax > xmin and ymax > ymin):
            raise GeometryError(f"degenerate bounds ({xmin}, {ymin}, {xmax}, {ymax})")
        self.xmin, self.ymin, self.xmax, self.ymax = (
            float(xmin),
            float(ymin),
            float(xmax),
            float(ymax),
        )
        bc = dict(boundary or {})
        unknown = set(bc) - set(SIDES)
        if unknown:
            raise GeometryError(f"unknown boundary sides: {sorted(unknown)}")
        self.boundary: dict[str, BoundaryCondition] = {
            side: bc.get(side, BoundaryCondition.REFLECTIVE) for side in SIDES
        }
        self._fsr_ids: dict[tuple, int] = {}
        self._fsr_materials: list[Material] = []
        self._fsr_names: list[str] = []
        self._enumerate_fsrs(root, ())
        #: The compiled query view (the only one after construction).
        self.flat: FlatGeometry = compile_flat(self)

    # ------------------------------------------------------------------ FSRs

    def _enumerate_fsrs(self, node: Node, path: tuple) -> None:
        if isinstance(node, Lattice):
            for j in range(node.ny):
                for i in range(node.nx):
                    self._enumerate_fsrs(node.universes[j][i], path + ((node.id, i, j),))
        else:
            for cell in node.cells:
                if cell.is_material_cell:
                    key = path + (cell.id,)
                    if key in self._fsr_ids:
                        raise GeometryError(f"duplicate FSR path {key}")
                    self._fsr_ids[key] = len(self._fsr_materials)
                    assert cell.material is not None
                    self._fsr_materials.append(cell.material)
                    self._fsr_names.append("/".join(str(p) for p in key))
                else:
                    assert cell.fill is not None
                    self._enumerate_fsrs(cell.fill, path + (cell.id,))

    @property
    def num_fsrs(self) -> int:
        return len(self._fsr_materials)

    @property
    def fsr_materials(self) -> tuple[Material, ...]:
        """Material of each FSR, indexed by FSR id."""
        return tuple(self._fsr_materials)

    def fsr_name(self, fsr_id: int) -> str:
        return self._fsr_names[fsr_id]

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    # --------------------------------------------------------------- queries

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def find_fsr(self, x: float, y: float) -> int:
        """FSR id at a point strictly inside the bounding box."""
        return self.flat.find_fsr(x, y)

    def _find_fsr_tree(self, x: float, y: float) -> int:
        """The object-by-object tree walk: the oracle the flat view is
        tested against, never a query path."""
        if not self.contains(x, y):
            raise GeometryError(f"point ({x:.6g}, {y:.6g}) outside geometry bounds")
        node: Node = self.root
        px, py = x, y
        path: tuple = ()
        depth = 0
        while True:
            depth += 1
            if depth > 64:
                raise GeometryError("geometry hierarchy too deep (cycle?)")
            if isinstance(node, Lattice):
                i, j = node.cell_index(px, py)
                path = path + ((node.id, i, j),)
                px, py = node.local_coords(px, py, i, j)
                node = node.universes[j][i]
            else:
                cell = node.find_cell(px, py)
                if cell.is_material_cell:
                    key = path + (cell.id,)
                    try:
                        return self._fsr_ids[key]
                    except KeyError:
                        raise GeometryError(f"unenumerated FSR path {key}") from None
                path = path + (cell.id,)
                node = cell.fill  # type: ignore[assignment]

    def fsr_material(self, fsr_id: int) -> Material:
        return self._fsr_materials[fsr_id]

    def distance_to_boundary(self, x: float, y: float, ux: float, uy: float) -> float:
        """Distance a ray may advance before any surface crossing (see
        :meth:`_distance_to_boundary_tree` for the full semantics)."""
        return self.flat.distance_to_boundary(x, y, ux, uy)

    def _distance_to_boundary_tree(self, x: float, y: float, ux: float, uy: float) -> float:
        """Distance a ray may advance before any surface crossing.

        Considers, at every level of the hierarchy containing the point:
        the bounding box, lattice cell walls, and every surface of the
        local universe. The returned distance is positive and finite for
        points inside the box with a non-degenerate direction.

        Points sitting exactly on a lattice wall are disambiguated by
        nudging the *lookup* point slightly along the ray direction (the
        distances themselves are measured from the true point); walls
        within :data:`~repro.constants.ON_SURFACE_TOL` behind or ahead are
        treated as already crossed.
        """
        from repro.constants import RAY_NUDGE

        dist = self._distance_to_box(x, y, ux, uy, self.xmin, self.ymin, self.xmax, self.ymax)
        node: Node = self.root
        # Lookup coordinates (nudged) and true coordinates share the same
        # per-level translations, so one offset pair tracks both.
        lx, ly = x + RAY_NUDGE * ux, y + RAY_NUDGE * uy
        px, py = x, y
        depth = 0
        while True:
            depth += 1
            if depth > 64:
                raise GeometryError("geometry hierarchy too deep (cycle?)")
            if isinstance(node, Lattice):
                i, j = node.cell_index(lx, ly)
                bx0, by0, bx1, by1 = node.cell_bounds(i, j)
                dist = min(dist, self._distance_to_box(px, py, ux, uy, bx0, by0, bx1, by1))
                cx, cy = node.cell_center(i, j)
                lx, ly = lx - cx, ly - cy
                px, py = px - cx, py - cy
                node = node.universes[j][i]
            else:
                for surface in node.surfaces:
                    d = surface.distance(px, py, ux, uy)
                    if d < dist:
                        dist = d
                cell = node.find_cell(lx, ly)
                if cell.is_material_cell:
                    break
                node = cell.fill  # type: ignore[assignment]
        if not math.isfinite(dist) or dist <= 0.0:
            raise GeometryError(
                f"no forward surface crossing from ({x:.6g}, {y:.6g}) "
                f"along ({ux:.6g}, {uy:.6g})"
            )
        return dist

    @staticmethod
    def _distance_to_box(
        x: float, y: float, ux: float, uy: float, x0: float, y0: float, x1: float, y1: float
    ) -> float:
        """Distance to the first axis-aligned wall strictly ahead.

        Walls closer than :data:`~repro.constants.ON_SURFACE_TOL` count as
        already crossed (the ray sits on them) and are skipped.
        """
        from repro.constants import ON_SURFACE_TOL

        dist = math.inf
        if ux > 1e-14:
            t = (x1 - x) / ux
            if ON_SURFACE_TOL < t < dist:
                dist = t
        elif ux < -1e-14:
            t = (x0 - x) / ux
            if ON_SURFACE_TOL < t < dist:
                dist = t
        if uy > 1e-14:
            t = (y1 - y) / uy
            if ON_SURFACE_TOL < t < dist:
                dist = t
        elif uy < -1e-14:
            t = (y0 - y) / uy
            if ON_SURFACE_TOL < t < dist:
                dist = t
        return dist

    def boundary_side(self, x: float, y: float, tol: float = 1e-7) -> str | None:
        """Which bounding-box side a point lies on, if any (corner returns
        the x side)."""
        if abs(x - self.xmin) < tol:
            return "xmin"
        if abs(x - self.xmax) < tol:
            return "xmax"
        if abs(y - self.ymin) < tol:
            return "ymin"
        if abs(y - self.ymax) < tol:
            return "ymax"
        return None

    def __repr__(self) -> str:
        return (
            f"Geometry({self.name!r}, bounds=({self.xmin}, {self.ymin}, "
            f"{self.xmax}, {self.ymax}), fsrs={self.num_fsrs})"
        )
