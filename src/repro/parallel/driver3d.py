"""Z-decomposed 3D transport: the paper's spatial decomposition in 3D.

The cuboid decomposition of Sec. 3.2 cuts the reactor in all three axes;
this driver implements the axial cuts end-to-end with *real* 3D sweeps:
the extruded geometry is split into stacked z-slabs, each slab is a
:class:`~repro.solver.domain.Domain` built over the **shared** radial
tracking that owns its track-storage strategy (EXP / OTF / MANAGER / CCM,
the resident budget per slab — the paper's per-device model), and boundary
angular flux crosses the slab interfaces through the pluggable execution
engine each iteration (Jacobi, as in the 2D driver) — in-process via the
simulated communicator, or across real worker processes via shared memory.

The constructor builds only what needs every slab: the shared radial
laydown, each slab's 3D track table, the interface routes (which read
only table columns) and the coarse CMFD mesh. A slab's segmentation,
storage strategy, volumes, sweeper, sweep plan and current tally are
built by whoever sweeps it, in the solve's start-up step
(:meth:`~repro.engine.problem.DecomposedProblem.build`): the caller under
``inproc``, its forked worker under ``mp`` / ``mp-async``, so a worker
inherits two track tables, not two segmented slabs, and the workers build
in parallel.

Sharing one radial tracking between slabs is what modular ray tracing
guarantees on congruent subdomains: every slab sees identical chains, so
an exit through a z-interface lands exactly on an entry slot of the
neighbouring slab's stack (both slabs lay their 3D tracks on the same
per-chain ``s`` grid — the ``n_s`` correction depends only on the chain
length and polar spacing, not the slab height).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.constants import DEFAULT_ENGINE_TIMEOUT, DEFAULT_KEFF_TOL, DEFAULT_SOURCE_TOL
from repro.errors import DecompositionError
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.geometry import BoundaryCondition
from repro.parallel.driver import DomainDriver
from repro.solver.domain import Domain
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.solver import Workload
from repro.tracks.generator import TrackGenerator, TrackingTimings

if TYPE_CHECKING:
    from repro.engine import EngineResult


def _slab_meshes(mesh: AxialMesh, num_domains: int) -> list[AxialMesh]:
    """Split an axial mesh into contiguous layer groups (absolute z)."""
    nz = mesh.num_layers
    if nz % num_domains != 0:
        raise DecompositionError(
            f"{num_domains} z-domains do not divide {nz} axial layers"
        )
    per = nz // num_domains
    return [
        AxialMesh(mesh.z_edges[d * per : (d + 1) * per + 1])
        for d in range(num_domains)
    ]


def join_last(entry_keys: np.ndarray, exit_keys: np.ndarray) -> np.ndarray:
    """Per row of ``exit_keys``, the index of the last equal row of
    ``entry_keys``, or ``-1`` where there is none: a sorted keyed join.

    Both key tables are ``(n, k)`` integer rows. One ``np.unique`` over
    the rows viewed as opaque byte strings numbers the distinct rows of
    both (equal rows are equal bytes); a stable sort of the entries'
    numbers puts the entries of one key in input order, so the last of
    each run is the later one, as a dict filled in input order would keep.
    """
    keys = np.ascontiguousarray(np.concatenate([entry_keys, exit_keys]))
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1])))
    _, ids = np.unique(rows.reshape(-1), return_inverse=True)
    entry_ids, exit_ids = ids[: len(entry_keys)], ids[len(entry_keys) :]
    order = np.argsort(entry_ids, kind="stable")
    sorted_ids = entry_ids[order]
    last = np.ones(len(sorted_ids), dtype=bool)
    last[:-1] = sorted_ids[1:] != sorted_ids[:-1]
    winner = np.full(len(keys), -1, dtype=np.int64)
    winner[sorted_ids[last]] = order[last]
    return winner[exit_ids]


class ZDecomposedSolver(DomainDriver):
    """Axially decomposed 3D MOC eigenvalue solver over a pluggable engine."""

    def __init__(
        self,
        geometry3d: ExtrudedGeometry,
        num_domains: int,
        num_azim: int = 4,
        azim_spacing: float = 0.5,
        polar_spacing: float = 0.5,
        num_polar: int = 2,
        storage: str = "EXP",
        resident_memory_bytes: int | None = None,
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
        if num_domains < 1:
            raise DecompositionError("need at least one z-domain")
        ExponentialEvaluator.shared()  # before the laydown, as DecomposedSolver
        self.geometry = geometry3d
        slabs = _slab_meshes(geometry3d.axial_mesh, num_domains)
        layers_per = geometry3d.num_layers // num_domains

        # One shared radial tracking for every slab.
        radial = TrackGenerator(
            geometry3d.radial, num_azim=num_azim, azim_spacing=azim_spacing,
            num_polar=num_polar, cache=cache,
        ).generate()
        self.radial = radial

        self.domains = []
        for d in range(num_domains):
            layer_offset = d * layers_per
            bc_lo = (
                geometry3d.boundary_zmin if d == 0 else BoundaryCondition.INTERFACE
            )
            bc_hi = (
                geometry3d.boundary_zmax
                if d == num_domains - 1
                else BoundaryCondition.INTERFACE
            )
            slab_geom = ExtrudedGeometry(
                geometry3d.radial,
                slabs[d],
                layer_material=self._global_layer_map(layer_offset),
                boundary_zmin=bc_lo,
                boundary_zmax=bc_hi,
                name=f"{geometry3d.name}-z{d}",
            )
            self.domains.append(
                Domain.extruded(
                    slab_geom, num_azim=num_azim, azim_spacing=azim_spacing,
                    polar_spacing=polar_spacing, num_polar=num_polar, storage=storage,
                    resident_memory_bytes=resident_memory_bytes,
                    backend=backend, radial=radial,
                )
            )
        self.num_groups = self.domains[0].terms.num_groups
        self.routes = self._match_interfaces()
        self._finish(
            engine, workers, timeout,
            keff_tolerance, source_tolerance, max_iterations, cmfd,
        )

    @property
    def tracking_timings(self) -> list[TrackingTimings]:
        return [self.radial.timings] + [d.trackgen.timings for d in self.domains]

    @property
    def workload(self) -> Workload:
        return Workload(
            num_fsrs=self.geometry.num_fsrs,
            num_domains=self.num_domains,
            tracks_2d=self.radial.num_tracks,
            segments_2d=self.radial.num_segments,
            tracks_3d=sum(d.tracks_3d for d in self.domains),
            segments_3d=sum(d.segments_3d for d in self.domains),
            tracks_3d_resident=sum(d.tracks_3d_resident for d in self.domains),
        )

    def _global_layer_map(self, layer_offset: int):
        """Map a slab's local layer to the global extruded material."""
        geometry3d = self.geometry

        def mapper(mat, local_layer):
            # ``mat`` is the radial material; look up the global override.
            # The radial FSR is unknown here, but the global map only
            # depends on (material, global layer) by construction of
            # ExtrudedGeometry's LayerMaterialMap contract.
            return geometry3d._layer_material(mat, layer_offset + local_layer)

        return mapper

    # ------------------------------------------------------------ matching

    def _match_interfaces(self) -> np.ndarray:
        """The route table (:mod:`repro.parallel.exchange`): interface exits
        paired with neighbour entries at shared z-planes.

        One sorted keyed join per plane and crossing direction over the two
        slabs' table columns: each exit slot of the source slab, in uid
        order, takes the destination slab's entry slot with the same
        (chain, polar, quantised ``s``, traversal direction); of two entries
        on one key the later uid wins.
        """
        lengths = self.radial.track_table_2d().chain_length

        def slots(domain: int, plane: float, up: bool, exits: bool):
            """``(uid, direction, key, s)`` per slot of slab ``domain`` whose
            flux moves ``up`` (or down) and exits (or enters) on ``plane``,
            in uid order; ``key`` is one ``(chain, polar, cell, direction)``
            row per slot. Slot ``(t, k)`` is traversal ``k`` (0 forward, 1
            backward) of track ``t``: it enters at end ``k`` of
            ``(s0, z0) -> (s1, z1)`` and exits at the other, like the
            table's ``(T, 2)`` columns."""
            table = self.domains[domain].trackgen.track_table()
            end = [1, 0] if exits else [0, 1]
            s = np.stack([table.s0, table.s1], axis=1)[:, end]
            z = np.stack([table.z0, table.z1], axis=1)[:, end]
            going_up = table.z1 > table.z0
            on = np.stack([going_up, ~going_up], axis=1) == up
            on &= np.abs(z - plane) < 1e-9 * max(plane, 1.0)
            if exits:
                on &= table.interface
            uid, direction = np.nonzero(on)
            s, chain = s[uid, direction], table.chain[uid]
            length = lengths[chain]
            s_red = np.mod(s, length)
            s_red[np.abs(s_red - length) < 1e-9 * np.maximum(length, 1.0)] = 0.0
            cell = np.round(s_red / (length * 1e-9 + 1e-12)).astype(np.int64)
            key = np.stack([chain, table.polar[uid], cell, direction], axis=1).astype(np.int64)
            return uid, direction, key, s

        blocks = [np.empty((0, 6), dtype=np.intp)]
        for d in range(self.num_domains - 1):
            plane = self.domains[d].geometry.axial_mesh.zmax
            # Flux moving up leaves slab d for d + 1; moving down, the reverse.
            for src, dst, up in ((d, d + 1, True), (d + 1, d, False)):
                entry_uid, entry_dir, entry_key, _ = slots(dst, plane, up, exits=False)
                exit_uid, exit_dir, exit_key, exit_s = slots(src, plane, up, exits=True)
                match = join_last(entry_key, exit_key)
                missing = np.nonzero(match < 0)[0]
                if missing.size:
                    i = int(missing[0])
                    uid, k = int(exit_uid[i]), int(exit_dir[i])
                    what = f"backward track {uid}" if k else f"track {uid}"
                    if up and not k:
                        chain, polar = int(exit_key[i, 0]), int(exit_key[i, 1])
                        what += f" (chain {chain}, polar {polar}, s={float(exit_s[i]):.8g})"
                    raise DecompositionError(
                        f"z-interface: no {'upper' if up else 'lower'} partner for {what}"
                    )
                n = len(match)
                blocks.append(np.column_stack([
                    np.full(n, src), exit_uid, exit_dir,
                    np.full(n, dst), entry_uid[match], entry_dir[match],
                ]))
        return np.concatenate(blocks).astype(np.intp, copy=False)

    # --------------------------------------------------------------- solve

    def solve(self) -> EngineResult:
        from repro.engine import DecomposedProblem

        return self.engine.solve(DecomposedProblem(self), self.comm)
