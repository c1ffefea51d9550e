"""Coarse-mesh finite-difference (CMFD) acceleration of the power iteration.

The standard MOC companion solver: a coarse spatial partition of the FSRs
is overlaid on the geometry, the transport sweep tallies net neutron
currents across coarse-cell faces alongside the existing delta-psi tally,
and between sweeps a small dense finite-difference eigenvalue problem is
solved on the coarse mesh. Its flux ratio (coarse solution over restricted
transport flux) prolongs multiplicatively back onto the FSR flux, and its
eigenvalue replaces the transport estimate — collapsing the number of
transport sweeps needed to converge by several-fold (DESIGN.md
"Acceleration" derives the equations and the exactness argument).

Key structural properties, relied on throughout:

* **Any partition works.** Coarse-cell "faces" are defined by where the
  coarse-cell id changes along a track, not by geometric planes, so the
  balance identity below holds for *any* FSR -> cell map. The finite
  difference coupling ``D-tilde`` (from face geometry) is only a
  stabiliser; the correction factor ``D-hat`` absorbs all inconsistency
  between the FD model and the tallied currents.
* **Exactness at the fixed point.** Cross sections are homogenised by
  restriction of *integrated* reaction rates (collision, scattering,
  production) divided by the restricted flux, and ``D-hat`` is defined so
  the FD face current reproduces the tallied net current at the restricted
  flux. The restricted transport solution is therefore an exact eigenpair
  of the coarse operator once transport has converged: prolongation
  factors go to one and the coarse eigenvalue equals the transport one.
* **Bitwise reducibility.** Per-domain current tallies are mapped into a
  global pair table and reduced in rank order, exactly like the existing
  fission reductions, so inproc / mp / mp-async stay bitwise-equal with
  CMFD enabled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.geometry import Geometry
from repro.geometry.lattice import Lattice

#: Environment fallback for enabling CMFD (CLI > config > env > off).
CMFD_ENV_VAR = "REPRO_CMFD"

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})

#: Coarse-cell id used for leakage through a vacuum boundary.
EXT_CELL = -1


def resolve_cmfd_enabled(explicit: bool | None) -> bool:
    """Resolve the CMFD on/off switch: explicit setting wins, then the
    ``REPRO_CMFD`` environment variable, then off."""
    if explicit is not None:
        return bool(explicit)
    raw = os.environ.get(CMFD_ENV_VAR)
    if raw is None:
        return False
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise SolverError(f"unrecognised {CMFD_ENV_VAR}={raw!r} (expected a boolean word)")


@dataclass(frozen=True)
class CmfdOptions:
    """Resolved CMFD settings (the solver-facing twin of the ``cmfd``
    config block; ``enabled`` has already been folded away)."""

    #: Coarse cells along x/y; 0 means one per root-lattice cell.
    mesh_x: int = 0
    mesh_y: int = 0
    #: Coarse layers along z; 0 means one per global axial layer (3D only).
    mesh_z: int = 0
    #: Relative tolerance on the coarse eigenvalue and flux iteration.
    tolerance: float = 1.0e-12
    #: Inner power-iteration cap; exhaustion skips the acceleration step.
    max_inner_iterations: int = 20000
    #: Prolongation under-relaxation: factors become ``1 + theta (f - 1)``.
    #: Undamped CMFD overcorrects on optically thick coarse cells (the
    #: classic period-2 divergence); 0.5 is stable on every profile here,
    #: including assembly-sized coarse cells.
    relaxation: float = 0.5

    def validate(self) -> None:
        if self.mesh_x < 0 or self.mesh_y < 0 or self.mesh_z < 0:
            raise SolverError("cmfd mesh dimensions must be non-negative")
        if not self.tolerance > 0.0:
            raise SolverError(f"cmfd tolerance must be positive, got {self.tolerance}")
        if self.max_inner_iterations < 1:
            raise SolverError("cmfd max_inner_iterations must be at least 1")
        if not 0.0 < self.relaxation <= 1.0:
            raise SolverError(
                f"cmfd relaxation must be in (0, 1], got {self.relaxation}"
            )


def coerce_cmfd(cmfd: object) -> CmfdOptions | None:
    """Normalise a solver ``cmfd`` argument: ``None``/``False`` -> off,
    ``True`` -> defaults, :class:`CmfdOptions` (or any duck-typed config
    object with the same fields) -> those settings."""
    if cmfd is None or cmfd is False:
        return None
    if cmfd is True:
        return CmfdOptions()
    if isinstance(cmfd, CmfdOptions):
        cmfd.validate()
        return cmfd
    options = CmfdOptions(
        mesh_x=int(getattr(cmfd, "mesh_x", 0)),
        mesh_y=int(getattr(cmfd, "mesh_y", 0)),
        mesh_z=int(getattr(cmfd, "mesh_z", 0)),
        tolerance=float(getattr(cmfd, "tolerance", CmfdOptions.tolerance)),
        max_inner_iterations=int(
            getattr(cmfd, "max_inner_iterations", CmfdOptions.max_inner_iterations)
        ),
        relaxation=float(getattr(cmfd, "relaxation", CmfdOptions.relaxation)),
    )
    options.validate()
    return options


# --------------------------------------------------------------- coarse mesh


@dataclass(frozen=True)
class MeshSpec:
    """Global coarse-grid definition: a regular x/y grid plus optional
    (possibly non-uniform) z-planes."""

    x0: float
    y0: float
    hx: float
    hy: float
    nx: int
    ny: int
    z_edges: tuple[float, ...] | None = None

    @property
    def nz(self) -> int:
        return 1 if self.z_edges is None else len(self.z_edges) - 1


def mesh_spec_for(geometry: Geometry, options: CmfdOptions) -> MeshSpec:
    """Radial mesh spec: configured ``mesh_x/y`` or one cell per
    root-lattice cell (a single cell for universe-rooted geometries)."""
    root = geometry.root
    if options.mesh_x > 0:
        nx = options.mesh_x
    else:
        nx = root.nx if isinstance(root, Lattice) else 1
    if options.mesh_y > 0:
        ny = options.mesh_y
    else:
        ny = root.ny if isinstance(root, Lattice) else 1
    return MeshSpec(
        x0=geometry.xmin,
        y0=geometry.ymin,
        hx=geometry.width / nx,
        hy=geometry.height / ny,
        nx=nx,
        ny=ny,
    )


def mesh_spec_for_3d(geometry3d, options: CmfdOptions) -> MeshSpec:
    """3D mesh spec: radial spec of the radial geometry plus z-planes —
    configured ``mesh_z`` uniform layers or the global axial mesh edges."""
    radial = mesh_spec_for(geometry3d.radial, options)
    mesh = geometry3d.axial_mesh
    if options.mesh_z > 0:
        z_edges = np.linspace(mesh.zmin, mesh.zmax, options.mesh_z + 1)
    else:
        z_edges = mesh.z_edges
    return MeshSpec(
        x0=radial.x0, y0=radial.y0, hx=radial.hx, hy=radial.hy,
        nx=radial.nx, ny=radial.ny, z_edges=tuple(float(z) for z in z_edges),
    )


def fsr_points(geometry: Geometry) -> np.ndarray:
    """Representative ``(x, y)`` per radial FSR: the centre of its
    innermost lattice cell.

    One depth-first descent of the universe tree (the order the geometry
    enumerated its FSRs in) accumulates lattice cell centres — the exact
    inverse of the translations the point queries apply — so every FSR of
    a pin universe maps to its pin-cell centre (pin resolution). FSRs
    reached through no lattice keep the bounding-box centre.
    """
    points = np.empty((geometry.num_fsrs, 2), dtype=np.float64)
    points[:] = (
        0.5 * (geometry.xmin + geometry.xmax),
        0.5 * (geometry.ymin + geometry.ymax),
    )

    def descend(node, path: tuple, x: float, y: float, in_lattice: bool) -> None:
        if isinstance(node, Lattice):
            for j in range(node.ny):
                for i in range(node.nx):
                    cx, cy = node.cell_center(i, j)
                    child = path + ((node.id, i, j),)
                    descend(node.universes[j][i], child, x + cx, y + cy, True)
            return
        for cell in node.cells:
            if not cell.is_material_cell:
                descend(cell.fill, path + (cell.id,), x, y, in_lattice)
            elif in_lattice:
                points[geometry._fsr_ids[path + (cell.id,)]] = (x, y)

    descend(geometry.root, (), 0.0, 0.0, False)
    return points


def bin_fsrs(geometry: Geometry, spec: MeshSpec) -> np.ndarray:
    """Raw (uncompressed) radial coarse-bin id per FSR of one geometry.

    Raw ids are ``(iy * nx + ix) * nz + iz`` with ``iz = 0`` — the same
    encoding as the 3D binner so both feed :func:`build_coarse_mesh`.
    """
    points = fsr_points(geometry)
    ix = np.clip(
        np.floor((points[:, 0] - spec.x0) / spec.hx).astype(np.int64), 0, spec.nx - 1
    )
    iy = np.clip(
        np.floor((points[:, 1] - spec.y0) / spec.hy).astype(np.int64), 0, spec.ny - 1
    )
    return (iy * spec.nx + ix) * spec.nz


def bin_fsrs_3d(geometry3d, spec: MeshSpec) -> np.ndarray:
    """Raw coarse-bin id per 3D FSR (radial-major ``fsr3d`` ordering).

    Works on axial slabs too: layer centres carry absolute z, so each
    slab's layers land in the right global coarse z-bin.
    """
    if spec.z_edges is None:
        raise SolverError("3D binning requires a mesh spec with z_edges")
    radial = bin_fsrs(geometry3d.radial, spec) // spec.nz
    edges = np.asarray(spec.z_edges, dtype=np.float64)
    centers = 0.5 * (
        geometry3d.axial_mesh.z_edges[:-1] + geometry3d.axial_mesh.z_edges[1:]
    )
    iz = np.clip(np.searchsorted(edges, centers, side="right") - 1, 0, spec.nz - 1)
    return (radial[:, None] * spec.nz + iz[None, :]).reshape(-1)


class CoarseMesh:
    """The compressed global coarse mesh: dense cell ids, the FSR -> cell
    map, and per-cell grid indices/widths for the FD face geometry."""

    __slots__ = ("spec", "num_cells", "cellmap", "grid", "widths")

    def __init__(self, spec: MeshSpec, raw_bins: np.ndarray) -> None:
        if raw_bins.size == 0:
            raise SolverError("coarse mesh built over zero FSRs")
        cells_raw, cellmap = np.unique(raw_bins, return_inverse=True)
        self.spec = spec
        self.num_cells = int(cells_raw.size)
        self.cellmap = cellmap.astype(np.int64)
        iz = cells_raw % spec.nz
        radial = cells_raw // spec.nz
        ix = radial % spec.nx
        iy = radial // spec.nx
        self.grid = np.stack([ix, iy, iz], axis=1)
        if spec.z_edges is None:
            wz = np.ones(self.num_cells, dtype=np.float64)
        else:
            wz = np.diff(np.asarray(spec.z_edges, dtype=np.float64))[iz]
        self.widths = np.stack(
            [np.full(self.num_cells, spec.hx), np.full(self.num_cells, spec.hy), wz],
            axis=1,
        )


def build_coarse_mesh(spec: MeshSpec, raw_bins_per_domain: list[np.ndarray]) -> CoarseMesh:
    """Compress per-domain raw bins (concatenated in rank order — the
    global FSR ordering) into a dense global :class:`CoarseMesh`."""
    return CoarseMesh(spec, np.concatenate(raw_bins_per_domain))


def coarse_mesh_for(geometry, options: CmfdOptions, parts=None) -> CoarseMesh:
    """The global coarse mesh over ``geometry`` (z-planes included when
    it is extruded), binned over ``parts`` — its subdomain geometries in
    rank order; the geometry itself when undecomposed."""
    parts = [geometry] if parts is None else parts
    if isinstance(geometry, ExtrudedGeometry):
        spec = mesh_spec_for_3d(geometry, options)
        return build_coarse_mesh(spec, [bin_fsrs_3d(part, spec) for part in parts])
    spec = mesh_spec_for(geometry, options)
    return build_coarse_mesh(spec, [bin_fsrs(part, spec) for part in parts])


# ------------------------------------------------------------ current tally


class CurrentCapture:
    """Per-sweep capture plan handed to the kernel backends via
    ``SweepContext.capture``.

    For each direction ``d`` and prefix position ``i`` the backend writes
    the post-segment angular flux of the listed tracks into ``out[d]``:
    the numpy backend indexes its position-major working array with
    ``rows[d][i]`` (prefix-row indices, valid because a crossing after
    position ``i`` implies the track has at least ``i + 2`` segments), the
    reference backend indexes ``psi[d]`` with ``track_rows[d][i]``
    (absolute track ids, same order). ``dest[d][i]`` is the slice of
    ``out[d]`` both write into.
    """

    __slots__ = ("rows", "track_rows", "dest", "out")

    def __init__(self, rows, track_rows, dest, out) -> None:
        self.rows = rows
        self.track_rows = track_rows
        self.dest = dest
        self.out = out


class CurrentTally:
    """Accumulates net coarse-face currents over the sweeps of one domain.

    Faces are *directed coarse-cell pairs* ``(src, dst)`` (``dst == -1``
    for vacuum leakage), discovered from where the cell id changes along
    each track plus where tracks end. Internal crossings are captured
    in-kernel (:class:`CurrentCapture`); track-end exits need no backend
    support — the post-sweep ``psi`` arrays already hold the exit flux.
    Entries are never tallied: every entry is some traversal's exit, and
    build-time link-weight validation guarantees both sides carry the same
    quadrature weight, which is what makes the cell balance telescope
    exactly (DESIGN.md).
    """

    def __init__(
        self,
        plan,
        cell_of_fsr: np.ndarray,
        exit_dst: np.ndarray,
        num_groups: int,
    ) -> None:
        topology = plan.topology
        self.num_groups = int(num_groups)
        self.is_3d = topology.inv_sin is None
        _validate_link_weights(topology)
        offsets = plan.offsets
        counts = np.diff(offsets)
        num_tracks = topology.num_tracks
        num_segments = int(plan.num_segments)
        seg_cell = np.asarray(cell_of_fsr, dtype=np.int64)[plan.seg_fsr]

        # Adjacent-segment boundaries inside one track where the cell changes.
        track_of_seg = np.repeat(np.arange(num_tracks, dtype=np.int64), counts)
        crossing = np.nonzero(
            (seg_cell[:-1] != seg_cell[1:]) & (track_of_seg[:-1] == track_of_seg[1:])
        )[0]
        cross_track = track_of_seg[crossing]
        cell_before = seg_cell[crossing]
        cell_after = seg_cell[crossing + 1]

        # Per-direction internal records: (track, capture position, src, dst).
        # Forward captures fire after traversal position ``s - offsets[t]``;
        # backward ones after the position of segment ``s + 1`` in reverse
        # order, with source/destination swapped.
        pos_fwd = crossing - offsets[cross_track]
        pos_bwd = offsets[cross_track + 1] - 2 - crossing
        internal = (
            (cross_track, pos_fwd, cell_before, cell_after),
            (cross_track, pos_bwd, cell_after, cell_before),
        )
        exit_dst = np.asarray(exit_dst, dtype=np.int64)
        if exit_dst.shape != (num_tracks, 2):
            raise SolverError(
                f"exit_dst shape {exit_dst.shape} != ({num_tracks}, 2)"
            )
        has = counts > 0
        ended = np.nonzero(has)[0]
        exit_src = (seg_cell[offsets[1:][has] - 1], seg_cell[offsets[:-1][has]])

        # Fold layout: [forward crossings | forward exits | backward
        # crossings | backward exits], so one weight contraction and one
        # ordered np.add.at fold a sweep in the per-direction order.
        # Crossings are ordered by (position, prefix row) so the kernel
        # writes contiguous slices per position; exits (last traversal cell
        # -> destination cell; self pairs, i.e. reflective returns into the
        # same cell, dropped) are copied in from the post-sweep ``psi``.
        rank = np.empty(num_tracks, dtype=np.int64)
        rank[plan.track_order] = np.arange(num_tracks, dtype=np.int64)
        rows: list[list[np.ndarray]] = []
        track_rows: list[list[np.ndarray]] = []
        dest: list[list[slice]] = []
        blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        n_crossing_groups = int(plan.max_positions)
        for d in (0, 1):
            track, pos, src, dst = internal[d]
            prow = rank[track]
            order = np.lexsort((prow, pos))
            track, pos, prow = track[order], pos[order], prow[order]
            starts = np.searchsorted(pos, np.arange(n_crossing_groups + 1))
            rows.append(
                [prow[starts[i]:starts[i + 1]] for i in range(n_crossing_groups)]
            )
            track_rows.append(
                [track[starts[i]:starts[i + 1]] for i in range(n_crossing_groups)]
            )
            dest.append(
                [slice(starts[i], starts[i + 1]) for i in range(n_crossing_groups)]
            )
            exit_to = exit_dst[ended, d]
            keep = exit_to != exit_src[d]
            blocks += [
                (track, src[order], dst[order]),
                (ended[keep], exit_src[d][keep], exit_to[keep]),
            ]
        bounds = np.cumsum([0] + [block[0].size for block in blocks])
        spans = [slice(bounds[i], bounds[i + 1]) for i in range(len(blocks))]
        fold_tracks, fold_src, fold_dst = (np.concatenate(c) for c in zip(*blocks))

        # Global-for-this-domain pair table (sorted by (src, dst) via an
        # encoded key; np.unique keeps everything deterministic).
        stride = int(seg_cell.max() + 2) if num_segments else 2
        keys = fold_src * stride + (fold_dst + 1)
        unique_keys = np.unique(keys)
        self.pairs = np.stack(
            [unique_keys // stride, unique_keys % stride - 1], axis=1
        ).astype(np.int64)
        self.num_pairs = int(unique_keys.size)

        weights = topology.weights
        self._fold = np.zeros(
            (fold_tracks.size,) + weights.shape[1:] + (self.num_groups,)
        )
        self._fold_weights = weights[fold_tracks]
        self._fold_slots = np.searchsorted(unique_keys, keys)
        self._exit_tracks = (blocks[1][0], blocks[3][0])
        self._exit_spans = (spans[1], spans[3])
        self.capture = CurrentCapture(
            rows, track_rows, dest, [self._fold[spans[0]], self._fold[spans[2]]]
        )

        #: Coarse cell each traversal enters first — used to rescale the
        #: stored boundary angular fluxes after a prolongation so the next
        #: sweep's incoming flux is consistent with the jumped scalar flux.
        self.entry = traversal_entry_cells(plan, cell_of_fsr)

        self._currents = np.zeros((self.num_pairs, self.num_groups))

    def scale_boundary_flux(self, psi_in: np.ndarray, cell_factors: np.ndarray) -> None:
        """Scale the sweeper's stored incoming angular flux ``(T, 2, ...)``
        by each traversal's entry-cell prolongation factor (per group)."""
        entered = self.entry >= 0
        factor = cell_factors[self.entry[entered]]
        if psi_in.ndim == 4:  # 2D: (T, 2, P, G)
            factor = factor[:, None, :]
        psi_in[entered] *= factor

    def accumulate(self, psi: list[np.ndarray]) -> None:
        """Fold one sweep's captured crossings and track-end exits into the
        running per-pair current tally (quadrature weights applied here)."""
        fold = self._fold
        fold[self._exit_spans[0]] = psi[0][self._exit_tracks[0]]
        fold[self._exit_spans[1]] = psi[1][self._exit_tracks[1]]
        if self.is_3d:  # weighted in place: the next sweep rewrites every row
            contrib = np.multiply(fold, self._fold_weights[:, None], out=fold)
        else:
            contrib = np.einsum("kpg,kp->kg", fold, self._fold_weights)
        np.add.at(self._currents, self._fold_slots, contrib)

    def take(self) -> np.ndarray:
        """Return the accumulated ``(num_pairs, G)`` currents and reset —
        each CMFD solve consumes exactly the last sweep's currents."""
        out = self._currents.copy()
        self._currents[:] = 0.0
        return out

    def reset(self) -> None:
        """Zero all tally state (currents and captured crossings) — used
        when a solver is rebound to new cross sections: the layout is
        XS-independent and reused, the accumulated values are not."""
        self._currents[:] = 0.0
        self._fold[:] = 0.0


def _validate_link_weights(topology) -> None:
    """Linked traversals must carry equal quadrature weights: an entry is
    only balanced by the upstream exit tally if both sides weigh the
    boundary flux identically (the telescoping argument in DESIGN.md)."""
    live = ~topology.terminal
    weights = topology.weights
    linked = weights[topology.next_track[live]]
    if not np.allclose(weights[np.nonzero(live)[0]], linked, rtol=1e-9, atol=0.0):
        raise SolverError(
            "CMFD current tally requires linked tracks to share quadrature "
            "weights; this track laydown links tracks of unequal weight"
        )


def traversal_entry_cells(plan, cell_of_fsr: np.ndarray) -> np.ndarray:
    """Coarse cell each traversal *enters* first, ``(T, 2)``; traversals
    with no segments resolve forward through their link chain (vacuum or
    unresolvable chains give ``-1``).

    The chase is pointer doubling over the ``2 T`` traversal ends: an end
    with segments or a terminal link points at itself, any other at its
    linked end, and ``log2(2 T)`` squarings carry every end to the stop of
    its chain — the end itself when it has segments.
    """
    topology = plan.topology
    offsets = plan.offsets
    has = np.diff(offsets) > 0
    seg_cell = np.asarray(cell_of_fsr, dtype=np.int64)[plan.seg_fsr]
    num_tracks = topology.num_tracks
    own = np.full((num_tracks, 2), EXT_CELL, dtype=np.int64)
    own[has, 0] = seg_cell[offsets[:-1][has]]
    own[has, 1] = seg_cell[offsets[1:][has] - 1]
    stop = (has[:, None] | topology.terminal).ravel()
    ends = np.arange(2 * num_tracks, dtype=np.int64)
    succ = np.where(stop, ends, (2 * topology.next_track + topology.next_dir).ravel())
    for _ in range((2 * num_tracks).bit_length()):
        succ = succ[succ]
    if not stop[succ].all():
        raise SolverError("cycle of zero-segment tracks in CMFD entry chase")
    return own.ravel()[succ].reshape(num_tracks, 2)


def local_exit_destinations(plan, cell_of_fsr: np.ndarray) -> np.ndarray:
    """Destination coarse cell per traversal end, ``(T, 2)``: linked ends
    land in the linked traversal's entry cell, terminal ends (vacuum *and*
    domain interfaces) start as ``-1`` — drivers overwrite interface ends
    from their Route tables."""
    topology = plan.topology
    entry = traversal_entry_cells(plan, cell_of_fsr)
    live = ~topology.terminal
    dst = np.full((topology.num_tracks, 2), EXT_CELL, dtype=np.int64)
    dst[live] = entry[topology.next_track[live], topology.next_dir[live]]
    return dst


# ----------------------------------------------------------- coarse problem


@dataclass
class CmfdStep:
    """Outcome of one coarse solve: the eigenvalue (``None`` when the
    solve was skipped), per-cell prolongation factors (ones on skip), the
    inner iteration count, and how many face-groups the D-hat limiter
    capped while assembling the operator."""

    keff: float | None
    factors: np.ndarray
    inner_iterations: int
    skipped: bool
    limited: int


@dataclass
class CmfdStats:
    """Accumulated accelerator bookkeeping for the run report."""

    solves: int = 0
    inner_iterations: int = 0
    skips: int = 0
    limited: int = 0
    seconds: float = 0.0

    def record(self, step: CmfdStep, seconds: float) -> None:
        self.solves += 1
        self.inner_iterations += step.inner_iterations
        self.skips += int(step.skipped)
        self.limited += step.limited
        self.seconds += seconds

    def as_dict(self) -> dict:
        return {
            "cmfd_solves": self.solves,
            "cmfd_iterations": self.inner_iterations,
            "cmfd_skips": self.skips,
            "cmfd_limited": self.limited,
            "cmfd_seconds": self.seconds,
        }


class CmfdProblem:
    """The global coarse operator: restriction of the fine flux onto the
    mesh, D-hat corrected finite-difference assembly, and the dense
    eigenvalue solve. Deterministic and numpy-only (scipy-free).

    Everything between two sweeps is whole-array code over index arrays
    built once (here and in :meth:`finalize_pairs`); the one Python loop
    per solve is the inner power iteration. Every sum keeps a fixed
    per-element order — ``np.bincount`` and ``np.add.at`` both add a bin's
    terms in input order — so the results are bitwise those of the
    per-cell / per-face loops kept in ``tests/solver/cmfd_oracle.py``.
    """

    def __init__(
        self,
        mesh: CoarseMesh,
        sigma_t: np.ndarray,
        sigma_s: np.ndarray,
        nu_sigma_f: np.ndarray,
        chi: np.ndarray,
        volumes: np.ndarray,
        options: CmfdOptions,
    ) -> None:
        options.validate()
        self.mesh = mesh
        self.options = options
        self.cellmap = mesh.cellmap
        self.num_cells = mesh.num_cells
        self.num_groups = int(sigma_t.shape[1])
        num_fsrs = self.cellmap.size
        for name, table in (
            ("sigma_t", sigma_t), ("nu_sigma_f", nu_sigma_f), ("chi", chi)
        ):
            if table.shape != (num_fsrs, self.num_groups):
                raise SolverError(f"{name} shape {table.shape} does not match mesh")
        if sigma_s.shape != (num_fsrs, self.num_groups, self.num_groups):
            raise SolverError(f"sigma_s shape {sigma_s.shape} does not match mesh")
        if volumes.shape != (num_fsrs,):
            raise SolverError(f"volumes shape {volumes.shape} does not match mesh")
        self.sigma_t = sigma_t
        self.sigma_s = sigma_s
        self.nu_sigma_f = nu_sigma_f
        self.chi = chi
        self.volumes = np.asarray(volumes, dtype=np.float64)
        self.cell_volumes = np.bincount(
            self.cellmap, weights=self.volumes, minlength=self.num_cells
        )
        # Restriction of the (R, K) per-FSR rates solve() builds: flat bin
        # cell * K + k, so one bincount sums every rate of a cell in FSR order.
        width = self.num_groups * (4 + self.num_groups)
        self._restrict_index = (
            self.cellmap[:, None] * width + np.arange(width)
        ).ravel()
        self.pairs: np.ndarray | None = None
        self.row_offsets: np.ndarray | None = None

    # -- pair registration / reduction ----------------------------------

    def finalize_pairs(self, pair_tables: list[np.ndarray]) -> None:
        """Union the per-domain directed-pair tables (rank order) into the
        global table and precompute the face geometry and the index arrays
        used at solve time."""
        stride = self.num_cells + 1
        keys = [
            table[:, 0] * stride + (table[:, 1] + 1) for table in pair_tables
        ]
        stacked = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
        unique_keys = np.unique(stacked)
        self.pairs = np.stack(
            [unique_keys // stride, unique_keys % stride - 1], axis=1
        ).astype(np.int64)
        counts = [int(k.size) for k in keys]
        self.row_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # Reduction: stacked row r, group g lands in bin pair(r) * G + g.
        groups = np.arange(self.num_groups)
        pair_of_row = np.searchsorted(unique_keys, stacked)
        self._reduce_index = (pair_of_row[:, None] * self.num_groups + groups).ravel()
        self._build_faces(unique_keys, stride)

    @staticmethod
    def _tallied(sorted_keys: np.ndarray, queries: np.ndarray):
        """The indices of the ``queries`` present in ``sorted_keys`` and
        their slots there."""
        found = np.nonzero(np.isin(queries, sorted_keys))[0]
        return found, np.searchsorted(sorted_keys, queries[found])

    def _build_faces(self, unique_keys: np.ndarray, stride: int) -> None:
        pairs = self.pairs
        assert pairs is not None
        internal = pairs[:, 1] >= 0
        a = np.minimum(pairs[internal, 0], pairs[internal, 1])
        b = np.maximum(pairs[internal, 0], pairs[internal, 1])
        face_keys = np.unique(a * stride + b)
        self.face_a = (face_keys // stride).astype(np.int64)
        self.face_b = (face_keys % stride).astype(np.int64)
        # Net current a -> b: the (a, b) tally minus the (b, a) tally, each
        # where that direction was tallied at all.
        self._ab_faces, self._ab_slots = self._tallied(
            unique_keys, self.face_a * stride + (self.face_b + 1)
        )
        self._ba_faces, self._ba_slots = self._tallied(
            unique_keys, self.face_b * stride + (self.face_a + 1)
        )
        # Face geometry: area and per-side widths along the adjacency axis.
        # Non-grid-neighbour pairs (periodic wrap, diagonal leaps through a
        # corner) get zero area -> D-tilde = 0; D-hat carries them alone.
        widths = self.mesh.widths
        delta = self.mesh.grid[self.face_b] - self.mesh.grid[self.face_a]
        axis = np.argmax(np.abs(delta), axis=1)
        transverse = np.where(
            np.arange(3) != axis[:, None], widths[self.face_a], 1.0
        ).prod(axis=1)
        self.face_area = np.where(np.abs(delta).sum(axis=1) == 1, transverse, 0.0)
        self.face_ha = widths[self.face_a, axis]
        self.face_hb = widths[self.face_b, axis]
        leak = pairs[:, 1] == EXT_CELL
        self.leak_cells = pairs[leak, 0]
        self.leak_slots = np.nonzero(leak)[0]
        # Flat matrix positions of the coupling terms: face-major, then
        # aa / ab / bb / ba, then the leak diagonal. np.add.at applies
        # repeated indices in array order, so every element receives its
        # terms in the order the per-face loop added them.
        groups = np.arange(self.num_groups)
        n = self.num_cells * self.num_groups
        ga = self.face_a[:, None] * self.num_groups + groups
        gb = self.face_b[:, None] * self.num_groups + groups
        gl = self.leak_cells[:, None] * self.num_groups + groups
        self._couple_index = np.concatenate([
            np.stack([ga * n + ga, ga * n + gb, gb * n + gb, gb * n + ga], axis=1).ravel(),
            (gl * n + gl).ravel(),
        ])

    def reduce(self, rows_per_domain: list[np.ndarray]) -> np.ndarray:
        """Rank-ordered reduction of per-domain current tallies onto the
        global pair table — the bitwise-equal analogue of the fission
        reductions (one bincount over the rank-ordered stacked rows)."""
        if self.pairs is None:
            raise SolverError("CmfdProblem.reduce before finalize_pairs")
        total = np.bincount(
            self._reduce_index,
            weights=np.concatenate(rows_per_domain).ravel(),
            minlength=self.pairs.shape[0] * self.num_groups,
        )
        return total.reshape(-1, self.num_groups)

    def domain_rows(self, flat: np.ndarray, domain: int) -> np.ndarray:
        """Slice one domain's tally rows out of a stacked (shm) array."""
        assert self.row_offsets is not None
        return flat[self.row_offsets[domain]:self.row_offsets[domain + 1]]

    @property
    def total_pair_rows(self) -> int:
        """Stacked per-domain row count (the shm currents field height)."""
        if self.row_offsets is None:
            return 0
        return int(self.row_offsets[-1])

    # -- restriction + solve --------------------------------------------

    def _restrict(self, rates: np.ndarray) -> np.ndarray:
        """Sum the per-FSR rate rows ``(R, K)`` over each coarse cell."""
        width = rates.shape[1]
        return np.bincount(
            self._restrict_index, weights=rates.ravel(), minlength=self.num_cells * width
        ).reshape(self.num_cells, width)

    def _couplings(
        self, x0: np.ndarray, diffusion: np.ndarray, currents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """D-tilde and D-hat per face and group ``(F, G)``, after the flux
        limiter, and the number of face-groups the limiter capped."""
        d_a, d_b = diffusion[self.face_a], diffusion[self.face_b]
        x_a, x_b = x0[self.face_a], x0[self.face_b]
        area = self.face_area[:, None]
        h_a, h_b = self.face_ha[:, None], self.face_hb[:, None]
        d_tilde = 2.0 * d_a * d_b * area / (d_a * h_b + d_b * h_a)
        net = np.zeros_like(d_tilde)
        net[self._ab_faces] += currents[self._ab_slots]
        net[self._ba_faces] -= currents[self._ba_slots]
        total = x_a + x_b
        nonzero = total > 0.0
        d_hat = np.where(
            nonzero, (d_tilde * (x_a - x_b) - net) / np.where(nonzero, total, 1.0), 0.0
        )
        # Flux limiter: far from convergence |D-hat| can exceed D-tilde,
        # which breaks the diagonal dominance of the coarse operator and
        # destabilises the acceleration. Where that happens, recompute
        # the pair with |D-hat| = D-tilde such that the FD face current
        # still reproduces the tallied current at the restricted flux
        # (J > 0: D-hat = -D-tilde = -J / 2 x_a; J < 0 symmetric).
        over = np.abs(d_hat) > d_tilde
        if over.any():
            outward = net > 0.0
            a_on, b_on = x_a > 0.0, x_b > 0.0
            lim = np.where(
                outward & a_on,
                net / np.where(a_on, 2.0 * x_a, 1.0),
                np.where(~outward & b_on, -net / np.where(b_on, 2.0 * x_b, 1.0), 0.0),
            )
            d_tilde = np.where(over, lim, d_tilde)
            d_hat = np.where(over, np.where(outward, -lim, lim), d_hat)
        return d_tilde, d_hat, int(np.count_nonzero(over))

    def solve(self, phi: np.ndarray, currents: np.ndarray, keff: float) -> CmfdStep:
        """One coarse eigenvalue solve from the (raw, unnormalised) fine
        flux and the net face currents of the same sweep.

        Every guard that can skip the acceleration (singular matrix,
        non-convergence, loss of positivity) is evaluated from reduced,
        rank-ordered data only, so the skip decision is identical across
        engines; a skipped step returns unit factors and no eigenvalue.
        """
        if self.pairs is None:
            raise SolverError("CmfdProblem.solve before finalize_pairs")
        options = self.options
        num_cells, num_groups = self.num_cells, self.num_groups
        weight = phi * self.volumes[:, None]
        fine_production = np.einsum("rg,rg->r", self.nu_sigma_f, weight)
        coarse = self._restrict(np.concatenate([
            weight,
            self.sigma_t * weight,
            self.nu_sigma_f * weight,
            self.chi * fine_production[:, None],
            (self.sigma_s * weight[:, :, None]).reshape(weight.shape[0], -1),
        ], axis=1))
        flux, collision, production_g, emission = (
            coarse[:, :4 * num_groups].reshape(num_cells, 4, num_groups).transpose(1, 0, 2)
        )
        scatter = coarse[:, 4 * num_groups:].reshape(num_cells, num_groups, num_groups)
        volume_safe = np.where(self.cell_volumes > 0.0, self.cell_volumes, 1.0)
        x0 = flux / volume_safe[:, None]
        positive = x0 > 0.0
        inv_x0 = np.where(positive, 1.0, 0.0) / np.where(positive, x0, 1.0)

        # Removal on the diagonal, in-scatter blocks on the cell diagonal:
        # coefficients are integrated rates per unit average flux, exact at
        # the restricted solution.
        removal = np.where(positive, collision * inv_x0, self.cell_volumes[:, None])
        n = num_cells * num_groups
        matrix = np.zeros((n, n))
        matrix.reshape(-1)[:: n + 1] += removal.ravel()
        cells = np.arange(num_cells)
        blocks = matrix.reshape(num_cells, num_groups, num_cells, num_groups)
        blocks[cells, :, cells, :] -= (scatter * inv_x0[:, :, None]).transpose(0, 2, 1)

        # Face couplings (D-tilde stabiliser from the cell diffusion
        # coefficients, D-hat correction) and vacuum leakage.
        has_flux = flux > 0.0
        sigt_bar = np.where(has_flux, collision / np.where(has_flux, flux, 1.0), 1.0)
        diffusion = 1.0 / (3.0 * np.maximum(sigt_bar, 1e-14))
        d_tilde, d_hat, limited = self._couplings(x0, diffusion, currents)
        coupling = np.concatenate(
            [d_tilde - d_hat, -(d_tilde + d_hat), d_tilde + d_hat, d_hat - d_tilde], axis=1
        )
        leakage = currents[self.leak_slots] * inv_x0[self.leak_cells]
        np.add.at(
            matrix.reshape(-1),
            self._couple_index,
            np.concatenate([coupling.ravel(), leakage.ravel()]),
        )

        # Fission operator, factored: production per cell then chi split.
        fission_coef = production_g * inv_x0
        total_emission = production_g.sum(axis=1)[:, None]
        emits = total_emission > 0.0
        chi_bar = np.where(emits, emission / np.where(emits, total_emission, 1.0), 0.0)

        def apply_fission(x: np.ndarray) -> tuple[np.ndarray, float]:
            source = np.einsum("ig,ig->i", fission_coef, x)
            return chi_bar * source[:, None], float(source.sum())

        def skip(iterations: int) -> CmfdStep:
            return CmfdStep(None, np.ones((num_cells, num_groups)), iterations, True, limited)

        x = x0.copy()
        fission, produced = apply_fission(x)
        if not produced > 0.0:
            return skip(0)
        try:
            inverse = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            return skip(0)

        k = float(keff)
        for iterations in range(1, options.max_inner_iterations + 1):
            y = (inverse @ fission.ravel()).reshape(num_cells, num_groups)
            fission_y, produced_y = apply_fission(y)
            if not np.isfinite(produced_y) or not produced_y > 0.0:
                return skip(iterations)
            k_new = produced_y / produced
            x_new = y / k_new
            scale = float(np.abs(x_new).max())
            delta_x = float(np.abs(x_new - x).max()) / scale if scale > 0.0 else 0.0
            delta_k = abs(k_new - k)
            x = x_new
            fission = fission_y / k_new
            produced = produced_y / k_new
            k = k_new
            if delta_k < options.tolerance * max(1.0, abs(k)) and (
                delta_x < options.tolerance
            ):
                break
        else:
            return skip(iterations)
        if not np.isfinite(k) or not k > 0.0 or not np.all(np.isfinite(x)):
            return skip(iterations)
        if np.any(x[positive] <= 0.0):
            return skip(iterations)
        factors = np.ones((num_cells, num_groups))
        factors[positive] = 1.0 + options.relaxation * (
            x[positive] / x0[positive] - 1.0
        )
        return CmfdStep(k, factors, iterations, False, limited)


def decomposed_cmfd_problem(
    domains, routes, mesh: CoarseMesh, volumes: np.ndarray, options: CmfdOptions
) -> CmfdProblem:
    """The *global* coarse problem across a decomposition (2D lattice
    cuts, 3D z-slabs, or the one domain and no routes of an undecomposed
    solve), with one current tally attached per domain — the only place a
    transport sweeper gets one.

    Subdomains keep absolute coordinates, so ``mesh`` bins every domain's
    FSRs against the same global spec, concatenated in rank order.
    Interface track ends — locally terminal, hence vacuum to
    :func:`local_exit_destinations` — are resolved through the route table
    into the entry cell of the matched remote slot, which is what keeps
    the per-face net current (and therefore the coarse solve) identical
    across engines. Each tally is laid out once, over its domain's
    ``plan``: a tally reads only the layout (offsets, FSR ids, track
    order, topology), which every regenerated segmentation of a storage
    strategy shares, so it stays valid for the whole solve.
    """
    plans = [d.plan for d in domains]
    cells = [mesh.cellmap[d.fsr_offset : d.fsr_offset + d.num_fsrs] for d in domains]
    entries = [traversal_entry_cells(plan, cell) for plan, cell in zip(plans, cells)]
    exit_dst = [local_exit_destinations(plan, cell) for plan, cell in zip(plans, cells)]
    for route in routes:
        exit_dst[route.src_domain][route.src_track, route.src_dir] = entries[
            route.dst_domain
        ][route.dst_track, route.dst_dir]
    terms = [d.terms for d in domains]
    for dom, plan, cell, dst in zip(domains, plans, cells, exit_dst):
        dom.sweeper.current_tally = CurrentTally(plan, cell, dst, terms[0].num_groups)
    problem = CmfdProblem(
        mesh,
        np.concatenate([t.sigma_t for t in terms]),
        np.concatenate([t.sigma_s for t in terms]),
        np.concatenate([t.nu_sigma_f for t in terms]),
        np.concatenate([t.chi for t in terms]),
        volumes,
        options,
    )
    problem.finalize_pairs([d.sweeper.current_tally.pairs for d in domains])
    return problem


# -------------------------------------------------------------- application


def apply_engine_cmfd(
    cmfd: CmfdProblem,
    currents_rows: list[np.ndarray],
    phi_new: np.ndarray,
    pnorm: float,
    keff: float,
    production,
) -> tuple[float, np.ndarray, CmfdStep]:
    """The CMFD step every solve path shares (one row list per domain; a
    single-domain solve passes one).

    Reduces the per-domain currents in rank order, solves the coarse
    problem from the *raw* swept flux, renormalises the prolongation so
    the accelerated flux keeps unit fission production (``production`` is
    the caller's rank-ordered, *unaccounted* reduction of a global flux),
    and returns the coarse eigenvalue plus the per-*cell* multiplier:
    callers apply it to the normalised flux
    (``phi *= multiplier[cmfd.cellmap]``) and to each domain's stored
    boundary flux (``tally.scale_boundary_flux(psi_in, multiplier)``).
    When CMFD is disabled none of this runs — the unaccelerated path stays
    bitwise-identical to previous releases.
    """
    step = cmfd.solve(phi_new, cmfd.reduce(currents_rows), keff)
    prolonged = phi_new / pnorm
    prolonged *= step.factors[cmfd.cellmap]
    scale = production(prolonged)
    if not scale > 0.0:
        raise SolverError("CMFD prolongation lost all fission production")
    multiplier = step.factors / scale
    keff_out = step.keff if step.keff is not None else keff
    return keff_out, multiplier, step


class CmfdAccelerator:
    """The ``accelerator`` hook of single-domain solves (2D and all 3D
    storage strategies): :func:`apply_engine_cmfd` over one domain."""

    def __init__(self, problem: CmfdProblem, sweeper, terms, volumes) -> None:
        self.problem = problem
        self.sweeper = sweeper
        self.terms = terms
        self.volumes = volumes

    def apply(
        self, phi_new: np.ndarray, phi: np.ndarray, pnorm: float, keff: float
    ) -> tuple[float, CmfdStep]:
        """Run one coarse solve from the raw swept flux ``phi_new`` and
        prolong onto ``phi = phi_new / pnorm`` in place; returns the
        eigenvalue to continue the power iteration with."""
        tally = self.sweeper.current_tally
        keff, multiplier, step = apply_engine_cmfd(
            self.problem, [tally.take()], phi_new, pnorm, keff,
            lambda flux: self.terms.fission_production(flux, self.volumes),
        )
        phi *= multiplier[self.problem.cellmap]
        tally.scale_boundary_flux(self.sweeper.psi_in, multiplier)
        return keff, step


def single_domain_accelerator(
    mesh: CoarseMesh, sweeper, terms, volumes: np.ndarray, options: CmfdOptions
) -> CmfdAccelerator:
    """The single-domain CMFD overlay: one state's coarse problem over
    ``mesh`` behind an accelerator reading ``sweeper``'s current tally
    (enabled by the caller — a scenario batch enables one widened tally
    and passes each state's view of it, over one shared ``mesh``)."""
    problem = CmfdProblem(
        mesh, terms.sigma_t, terms.sigma_s, terms.nu_sigma_f, terms.chi, volumes, options
    )
    problem.finalize_pairs([sweeper.current_tally.pairs])
    return CmfdAccelerator(problem, sweeper, terms, volumes)
