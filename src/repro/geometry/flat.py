"""Flattened structure-of-arrays view of a CSG geometry.

The CSG tree is the pointer-chasing structure ANT-MOC streams to the GPU
as flat arrays (paper Sec. 4.1, Fig. 3). Every
:class:`~repro.geometry.geometry.Geometry` compiles its tree **once**, at
construction, into numpy arrays:

* surface coefficients per universe (plane ``a, b, c`` rows, cylinder
  ``x0, y0, r^2`` rows);
* cell membership as sign matrices over the surface potentials (each
  cell's region lowered to disjunctive normal form — OR of AND of signed
  halfspaces);
* lattice child/FSR-offset tables exploiting that the eager depth-first
  FSR enumeration assigns every subtree a *contiguous* id range, so a
  point's FSR id is the sum of per-level base offsets.

and exposes the two queries as batched kernels, :meth:`find_fsr_batch`
and :meth:`distance_to_boundary_batch`, that advance an entire wavefront
of points per numpy call. This view is the geometry's only query path and
its identity (:attr:`FlatGeometry.digest` keys the tracking cache). Every
arithmetic operation replicates the scalar tree walk's expression order,
so results are bitwise identical to it — the walk is kept only as the
oracle, property-tested in ``tests/properties/test_flat_properties``.

A tree using a surface or region type the compiler does not know is a
:class:`~repro.errors.GeometryError` naming the type. (One caveat of the
DNF lowering: negating a halfspace flips which side a point *exactly on*
the surface belongs to. The tracker never samples points on surfaces —
midpoints are nudged off them — and none of the shipped geometries use
:class:`~repro.geometry.region.Complement`.)
"""

from __future__ import annotations

import hashlib
from functools import cached_property

import numpy as np

from repro.constants import ON_SURFACE_TOL, RAY_NUDGE
from repro.errors import GeometryError
from repro.geometry.lattice import Lattice
from repro.geometry.region import Complement, Halfspace, Intersection, Region, Union
from repro.geometry.surfaces import Plane2D, Surface, ZCylinder

#: Safety valve on the DNF lowering: a single cell expanding past this
#: many conjunctions indicates a pathological region, refused at build.
_MAX_CONJUNCTIONS = 4096

#: Maximum hierarchy depth, mirroring the scalar walk's cycle guard.
_MAX_DEPTH = 64


# --------------------------------------------------------------------- DNF


def _region_dnf(region: Region, negate: bool) -> list[list[tuple[Surface, int]]]:
    """Lower a region to DNF: a list of conjunctions of ``(surface, sign)``.

    ``sign=+1`` means "potential >= 0", ``sign=-1`` means "potential <= 0"
    (matching :class:`~repro.geometry.region.Halfspace` semantics, where
    the boundary belongs to both sides). An empty conjunction is *always
    true*; an empty list of conjunctions is *always false*.
    """
    if isinstance(region, Halfspace):
        sign = -region.halfspace_side if negate else region.halfspace_side
        return [[(region.surface, sign)]]
    if isinstance(region, Complement):
        return _region_dnf(region.child, not negate)
    if isinstance(region, (Intersection, Union)):
        parts = [_region_dnf(child, negate) for child in region.children]
        conjunctive = isinstance(region, Intersection) != negate
        if not conjunctive:
            return [conj for part in parts for conj in part]
        out: list[list[tuple[Surface, int]]] = [[]]
        for part in parts:
            out = [a + b for a in out for b in part]
            if len(out) > _MAX_CONJUNCTIONS:
                raise GeometryError(
                    f"region {region!r} expands past {_MAX_CONJUNCTIONS} conjunctions"
                )
        return out
    # Custom region types: a surface-free region is a constant (membership
    # can only vary across surfaces), so probe it once.
    if not list(region.surfaces()):
        inside = bool(region.contains(0.0, 0.0))
        if negate:
            inside = not inside
        return [[]] if inside else []
    raise GeometryError(f"cannot lower region type {type(region).__name__}")


# ------------------------------------------------------------- node tables


class _FlatUniverse:
    """Compiled universe: surface coefficient rows + cell sign matrices."""

    __slots__ = (
        "name",
        "plane_abc",
        "cyl_xyr2",
        "num_planes",
        "lit_col",
        "lit_sign",
        "conj_starts",
        "dnf_cell_idx",
        "cell_conj_starts",
        "always_cell_idx",
        "num_cells",
        "cell_is_material",
        "cell_fsr_offset",
        "cell_child",
    )

    def __init__(self, universe, child_of_cell: dict[int, tuple[int, int]]) -> None:
        self.name = universe.name
        planes: list[Surface] = []
        cyls: list[Surface] = []
        for surf in universe.surfaces:
            if isinstance(surf, Plane2D):
                planes.append(surf)
            elif isinstance(surf, ZCylinder):
                cyls.append(surf)
            else:
                raise GeometryError(
                    f"cannot lower surface type {type(surf).__name__} "
                    f"in universe {universe.name!r}"
                )
        self.num_planes = len(planes)
        self.plane_abc = np.array(
            [[s.a, s.b, s.c] for s in planes], dtype=np.float64
        ).reshape(-1, 3)
        self.cyl_xyr2 = np.array(
            [[s.x0, s.y0, s.r * s.r] for s in cyls], dtype=np.float64
        ).reshape(-1, 3)
        column = {s.id: k for k, s in enumerate(planes)}
        column.update({s.id: self.num_planes + k for k, s in enumerate(cyls)})

        lit_col: list[int] = []
        lit_sign: list[float] = []
        conj_starts: list[int] = []
        dnf_cell_idx: list[int] = []
        cell_conj_starts: list[int] = []
        always_cell_idx: list[int] = []
        num_conj = 0
        for c, cell in enumerate(universe.cells):
            dnf = _region_dnf(cell.region, negate=False)
            if any(not conj for conj in dnf):
                always_cell_idx.append(c)
                continue
            if not dnf:
                continue  # never-true cell: column stays False
            dnf_cell_idx.append(c)
            cell_conj_starts.append(num_conj)
            for conj in dnf:
                conj_starts.append(len(lit_col))
                for surface, sign in conj:
                    lit_col.append(column[surface.id])
                    lit_sign.append(float(sign))
                num_conj += 1
        self.lit_col = np.array(lit_col, dtype=np.int64)
        self.lit_sign = np.array(lit_sign, dtype=np.float64)
        self.conj_starts = np.array(conj_starts, dtype=np.int64)
        self.dnf_cell_idx = np.array(dnf_cell_idx, dtype=np.int64)
        self.cell_conj_starts = np.array(cell_conj_starts, dtype=np.int64)
        self.always_cell_idx = np.array(always_cell_idx, dtype=np.int64)

        self.num_cells = len(universe.cells)
        self.cell_is_material = np.array(
            [cell.is_material_cell for cell in universe.cells], dtype=bool
        )
        offsets = np.zeros(self.num_cells, dtype=np.int64)
        children = np.full(self.num_cells, -1, dtype=np.int64)
        running = 0
        for c, cell in enumerate(universe.cells):
            offsets[c] = running
            if cell.is_material_cell:
                running += 1
            else:
                child_id, child_fsrs = child_of_cell[cell.id]
                children[c] = child_id
                running += child_fsrs
        self.cell_fsr_offset = offsets
        self.cell_child = children

    # ------------------------------------------------------------- kernels

    def potentials(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Surface potentials, shape ``(n, planes + cylinders)``."""
        n = x.size
        total = self.num_planes + self.cyl_xyr2.shape[0]
        f = np.empty((n, total), dtype=np.float64)
        if self.num_planes:
            a, b, c = self.plane_abc[:, 0], self.plane_abc[:, 1], self.plane_abc[:, 2]
            f[:, : self.num_planes] = x[:, None] * a + y[:, None] * b - c
        if self.cyl_xyr2.shape[0]:
            dx = x[:, None] - self.cyl_xyr2[:, 0]
            dy = y[:, None] - self.cyl_xyr2[:, 1]
            f[:, self.num_planes :] = dx * dx + dy * dy - self.cyl_xyr2[:, 2]
        return f

    def membership(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean cell-membership matrix, shape ``(n, num_cells)``."""
        n = x.size
        member = np.zeros((n, self.num_cells), dtype=bool)
        if self.always_cell_idx.size:
            member[:, self.always_cell_idx] = True
        if self.dnf_cell_idx.size:
            f = self.potentials(x, y)
            lit = self.lit_sign * f[:, self.lit_col] >= 0.0
            conj = np.logical_and.reduceat(lit, self.conj_starts, axis=1)
            member[:, self.dnf_cell_idx] = np.logical_or.reduceat(
                conj, self.cell_conj_starts, axis=1
            )
        return member

    def first_cell(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Index of the first containing cell per point (first match wins)."""
        member = self.membership(x, y)
        cell = np.argmax(member, axis=1)
        hit = member[np.arange(x.size), cell]
        if not hit.all():
            k = int(np.argmin(hit))
            raise GeometryError(
                f"point ({x[k]:.6g}, {y[k]:.6g}) is outside every cell of "
                f"universe {self.name!r}"
            )
        return cell

    def min_surface_distance(
        self, x: np.ndarray, y: np.ndarray, ux: np.ndarray, uy: np.ndarray
    ) -> np.ndarray:
        """Minimum forward crossing distance over this universe's surfaces."""
        best = np.full(x.size, np.inf)
        if self.num_planes:
            a, b, c = self.plane_abc[:, 0], self.plane_abc[:, 1], self.plane_abc[:, 2]
            denom = a * ux[:, None] + b * uy[:, None]
            num = a * x[:, None] + b * y[:, None] - c
            with np.errstate(divide="ignore", invalid="ignore"):
                d = -num / denom
            d = np.where(
                (np.abs(denom) >= 1e-14) & (d > ON_SURFACE_TOL), d, np.inf
            )
            best = np.minimum(best, d.min(axis=1))
        if self.cyl_xyr2.shape[0]:
            dx = x[:, None] - self.cyl_xyr2[:, 0]
            dy = y[:, None] - self.cyl_xyr2[:, 1]
            b2 = dx * ux[:, None] + dy * uy[:, None]
            c2 = dx * dx + dy * dy - self.cyl_xyr2[:, 2]
            disc = b2 * b2 - c2
            sq = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
            t1 = -b2 - sq
            t2 = -b2 + sq
            d = np.where(
                disc >= 0.0,
                np.where(t1 > ON_SURFACE_TOL, t1, np.where(t2 > ON_SURFACE_TOL, t2, np.inf)),
                np.inf,
            )
            best = np.minimum(best, d.min(axis=1))
        return best


class _FlatLattice:
    """Compiled lattice: child-node and FSR-offset lookup tables."""

    __slots__ = ("x0", "y0", "pitch_x", "pitch_y", "nx", "ny", "child", "offset")

    def __init__(self, lattice, child: np.ndarray, offset: np.ndarray) -> None:
        self.x0 = lattice.x0
        self.y0 = lattice.y0
        self.pitch_x = lattice.pitch_x
        self.pitch_y = lattice.pitch_y
        self.nx = lattice.nx
        self.ny = lattice.ny
        self.child = child  # (ny, nx) int64 flat-node ids
        self.offset = offset  # (ny, nx) int64 FSR base offsets

    def cell_index(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`~repro.geometry.lattice.Lattice.cell_index`."""
        i = ((x - self.x0) / self.pitch_x).astype(np.int64)
        j = ((y - self.y0) / self.pitch_y).astype(np.int64)
        np.clip(i, 0, self.nx - 1, out=i)
        np.clip(j, 0, self.ny - 1, out=j)
        return i, j


# --------------------------------------------------------------- compiler


def _fsr_count(node, memo: dict[int, int]) -> int:
    """FSRs under a structural node (path independent, memoised)."""
    key = id(node)
    if key in memo:
        return memo[key]
    if isinstance(node, Lattice):
        total = sum(
            _fsr_count(node.universes[j][i], memo)
            for j in range(node.ny)
            for i in range(node.nx)
        )
    else:
        total = 0
        for cell in node.cells:
            if cell.is_material_cell:
                total += 1
            else:
                total += _fsr_count(cell.fill, memo)
    memo[key] = total
    return total


def compile_flat(geometry) -> "FlatGeometry":
    """Compile a geometry's CSG tree into a :class:`FlatGeometry`.

    Called once, by the :class:`~repro.geometry.geometry.Geometry`
    constructor. Raises :class:`~repro.errors.GeometryError`, naming the
    construct, when the tree uses a surface or region type the compiler
    cannot lower.
    """
    counts: dict[int, int] = {}
    nodes: list[_FlatUniverse | _FlatLattice] = []
    built: dict[int, int] = {}

    def build(node) -> int:
        key = id(node)
        if key in built:
            return built[key]
        if isinstance(node, Lattice):
            child = np.empty((node.ny, node.nx), dtype=np.int64)
            offset = np.empty((node.ny, node.nx), dtype=np.int64)
            running = 0
            for j in range(node.ny):
                for i in range(node.nx):
                    u = node.universes[j][i]
                    child[j, i] = build(u)
                    offset[j, i] = running
                    running += _fsr_count(u, counts)
            flat: _FlatUniverse | _FlatLattice = _FlatLattice(node, child, offset)
        else:
            child_of_cell: dict[int, tuple[int, int]] = {}
            for cell in node.cells:
                if not cell.is_material_cell:
                    child_of_cell[cell.id] = (
                        build(cell.fill),
                        _fsr_count(cell.fill, counts),
                    )
            flat = _FlatUniverse(node, child_of_cell)
        nodes.append(flat)
        built[key] = len(nodes) - 1
        return built[key]

    root_id = build(geometry.root)
    total = _fsr_count(geometry.root, counts)
    if total != geometry.num_fsrs:
        raise GeometryError(
            f"flat FSR count {total} != enumerated {geometry.num_fsrs}"
        )
    return FlatGeometry(geometry, nodes, root_id)


# ------------------------------------------------------------------- view


def _box_distance(
    x: np.ndarray,
    y: np.ndarray,
    ux: np.ndarray,
    uy: np.ndarray,
    x0,
    y0,
    x1,
    y1,
) -> np.ndarray:
    """Vectorised :meth:`Geometry._distance_to_box` (bitwise identical)."""
    dist = np.full(x.size, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(
            ux > 1e-14,
            (x1 - x) / ux,
            np.where(ux < -1e-14, (x0 - x) / ux, np.inf),
        )
        ty = np.where(
            uy > 1e-14,
            (y1 - y) / uy,
            np.where(uy < -1e-14, (y0 - y) / uy, np.inf),
        )
    np.minimum(dist, np.where(tx > ON_SURFACE_TOL, tx, np.inf), out=dist)
    np.minimum(dist, np.where(ty > ON_SURFACE_TOL, ty, np.inf), out=dist)
    return dist


class FlatGeometry:
    """Batched point/ray kernels over a compiled CSG tree.

    Built by the :class:`~repro.geometry.geometry.Geometry` constructor
    (:attr:`Geometry.flat <repro.geometry.geometry.Geometry.flat>`); the
    geometry's scalar queries delegate here.
    """

    def __init__(self, geometry, nodes, root_id: int) -> None:
        self.name = geometry.name
        self._nodes = nodes
        self._root = root_id
        self.xmin = geometry.xmin
        self.ymin = geometry.ymin
        self.xmax = geometry.xmax
        self.ymax = geometry.ymax

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @cached_property
    def digest(self) -> str:
        """SHA-256 over what the kernels read: the root and every node's
        fields in build order, arrays with their dtype and shape. Universe
        names are left out, so two builds of one structure agree."""
        h = hashlib.sha256(f"root={self._root}".encode())
        for node in self._nodes:
            h.update(type(node).__name__.encode())
            for field in node.__slots__:
                if field == "name":
                    continue
                value = getattr(node, field)
                if isinstance(value, np.ndarray):
                    h.update(f"{field}:{value.dtype.str}{value.shape}".encode())
                    h.update(np.ascontiguousarray(value).tobytes())
                else:
                    h.update(f"{field}={value!r}".encode())
        return h.hexdigest()

    # -------------------------------------------------------------- points

    def find_fsr_batch(self, xs, ys) -> np.ndarray:
        """FSR id per point; vectorised equivalent of ``find_fsr``."""
        x = np.ascontiguousarray(xs, dtype=np.float64)
        y = np.ascontiguousarray(ys, dtype=np.float64)
        inside = (
            (self.xmin <= x) & (x <= self.xmax) & (self.ymin <= y) & (y <= self.ymax)
        )
        if not inside.all():
            k = int(np.argmin(inside))
            raise GeometryError(
                f"point ({x[k]:.6g}, {y[k]:.6g}) outside geometry bounds"
            )
        n = x.size
        px = x.copy()
        py = y.copy()
        node = np.full(n, self._root, dtype=np.int64)
        base = np.zeros(n, dtype=np.int64)
        out = np.full(n, -1, dtype=np.int64)
        pending = np.arange(n)
        depth = 0
        while pending.size:
            depth += 1
            if depth > _MAX_DEPTH:
                raise GeometryError("geometry hierarchy too deep (cycle?)")
            for nid in np.unique(node[pending]):
                sel = pending[node[pending] == nid]
                flat = self._nodes[nid]
                if isinstance(flat, _FlatLattice):
                    i, j = flat.cell_index(px[sel], py[sel])
                    base[sel] += flat.offset[j, i]
                    node[sel] = flat.child[j, i]
                    px[sel] = px[sel] - (flat.x0 + (i + 0.5) * flat.pitch_x)
                    py[sel] = py[sel] - (flat.y0 + (j + 0.5) * flat.pitch_y)
                else:
                    cell = flat.first_cell(px[sel], py[sel])
                    base[sel] += flat.cell_fsr_offset[cell]
                    material = flat.cell_is_material[cell]
                    out[sel[material]] = base[sel[material]]
                    node[sel] = np.where(material, node[sel], flat.cell_child[cell])
            pending = pending[out[pending] < 0]
        return out

    def find_fsr(self, x: float, y: float) -> int:
        """Scalar convenience wrapper over :meth:`find_fsr_batch`."""
        return int(self.find_fsr_batch(np.array([x]), np.array([y]))[0])

    # ---------------------------------------------------------------- rays

    def distance_to_boundary_batch(self, xs, ys, uxs, uys) -> np.ndarray:
        """Forward crossing distance per ray; vectorised equivalent of
        ``distance_to_boundary`` (same nudged-lookup disambiguation)."""
        x = np.ascontiguousarray(xs, dtype=np.float64)
        y = np.ascontiguousarray(ys, dtype=np.float64)
        ux = np.ascontiguousarray(uxs, dtype=np.float64)
        uy = np.ascontiguousarray(uys, dtype=np.float64)
        n = x.size
        dist = _box_distance(x, y, ux, uy, self.xmin, self.ymin, self.xmax, self.ymax)
        lx = x + RAY_NUDGE * ux
        ly = y + RAY_NUDGE * uy
        px = x.copy()
        py = y.copy()
        node = np.full(n, self._root, dtype=np.int64)
        finished = np.zeros(n, dtype=bool)
        pending = np.arange(n)
        depth = 0
        while pending.size:
            depth += 1
            if depth > _MAX_DEPTH:
                raise GeometryError("geometry hierarchy too deep (cycle?)")
            for nid in np.unique(node[pending]):
                sel = pending[node[pending] == nid]
                flat = self._nodes[nid]
                if isinstance(flat, _FlatLattice):
                    i, j = flat.cell_index(lx[sel], ly[sel])
                    bx0 = flat.x0 + i * flat.pitch_x
                    by0 = flat.y0 + j * flat.pitch_y
                    bx1 = flat.x0 + (i + 1) * flat.pitch_x
                    by1 = flat.y0 + (j + 1) * flat.pitch_y
                    dist[sel] = np.minimum(
                        dist[sel],
                        _box_distance(px[sel], py[sel], ux[sel], uy[sel], bx0, by0, bx1, by1),
                    )
                    cx = flat.x0 + (i + 0.5) * flat.pitch_x
                    cy = flat.y0 + (j + 0.5) * flat.pitch_y
                    lx[sel] = lx[sel] - cx
                    ly[sel] = ly[sel] - cy
                    px[sel] = px[sel] - cx
                    py[sel] = py[sel] - cy
                    node[sel] = flat.child[j, i]
                else:
                    dist[sel] = np.minimum(
                        dist[sel],
                        flat.min_surface_distance(px[sel], py[sel], ux[sel], uy[sel]),
                    )
                    cell = flat.first_cell(lx[sel], ly[sel])
                    material = flat.cell_is_material[cell]
                    node[sel] = np.where(material, node[sel], flat.cell_child[cell])
                    finished[sel[material]] = True
            pending = pending[~finished[pending]]
        bad = ~np.isfinite(dist) | (dist <= 0.0)
        if bad.any():
            k = int(np.argmax(bad))
            raise GeometryError(
                f"no forward surface crossing from ({x[k]:.6g}, {y[k]:.6g}) "
                f"along ({ux[k]:.6g}, {uy[k]:.6g})"
            )
        return dist

    def distance_to_boundary(self, x: float, y: float, ux: float, uy: float) -> float:
        """Scalar convenience wrapper over :meth:`distance_to_boundary_batch`."""
        return float(
            self.distance_to_boundary_batch(
                np.array([x]), np.array([y]), np.array([ux]), np.array([uy])
            )[0]
        )

    def __repr__(self) -> str:
        return f"FlatGeometry({self.name!r}, nodes={self.num_nodes})"
