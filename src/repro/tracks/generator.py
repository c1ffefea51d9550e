"""High-level track generators orchestrating the stage-3 pipeline.

:class:`TrackGenerator` runs the radial pipeline (quadrature correction,
laydown, linking, chains, 2D ray tracing, tracked FSR volumes);
:class:`TrackGenerator3D` extends it with 3D stacks, chain segment tables,
and the explicit/on-the-fly 3D segmentation entry points that the storage
strategies of Sec. 4.1 choose between.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import TrackingError
from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.geometry import Geometry
from repro.quadrature.azimuthal import AzimuthalQuadrature
from repro.quadrature.polar import PolarQuadrature, tabuchi_yamamoto
from repro.quadrature.product import ProductQuadrature
from repro.tracks.chains import Chain, build_chains, link_tracks
from repro.tracks.laydown import lay_tracks
from repro.tracks.raytrace2d import trace_all
from repro.tracks.raytrace3d import (
    ChainSegments,
    TrackTable3D,
    build_chain_tables,
    chain_table_objects,
    trace_3d_batch,
)
from repro.tracks.segments import SegmentData
from repro.tracks.stack3d import Stack3D, lay_3d_stacks, link_3d_stacks, track_objects
from repro.tracks.table2d import TrackTable2D
from repro.tracks.track import Track2D, Track3D


@dataclass
class TrackingTimings:
    """Wall-clock breakdown of one ``generate()`` call by pipeline phase.

    ``laydown`` covers 2D laydown and linking; ``trace2d`` the radial
    segmentation (and tracked volumes); ``chain`` chain construction plus
    the per-chain segment tables (and the 3D track table over them);
    ``stack`` the 3D stack laydown; ``link`` the 3D stack linking;
    ``cache`` any tracking-cache probe/store time. ``cache_hit`` is
    ``None`` when the generator did not look the cache up (no cache, or a
    3D generator that adopted its radial laydown).
    """

    laydown_seconds: float = 0.0
    trace2d_seconds: float = 0.0
    chain_seconds: float = 0.0
    stack_seconds: float = 0.0
    link_seconds: float = 0.0
    cache_seconds: float = 0.0
    cache_hit: bool | None = None

    def as_dict(self) -> dict[str, float]:
        return {
            "laydown": self.laydown_seconds,
            "trace2d": self.trace2d_seconds,
            "chain": self.chain_seconds,
            "stack": self.stack_seconds,
            "link": self.link_seconds,
            "cache": self.cache_seconds,
        }


class TrackGenerator:
    """Radial (2D) tracking pipeline for one geometry."""

    def __init__(
        self,
        geometry: Geometry,
        num_azim: int,
        azim_spacing: float,
        polar: PolarQuadrature | None = None,
        num_polar: int = 4,
        cache=None,
    ) -> None:
        self.geometry = geometry
        self.azimuthal = AzimuthalQuadrature(
            num_azim, geometry.width, geometry.height, azim_spacing
        )
        self.polar = polar if polar is not None else tabuchi_yamamoto(num_polar)
        self.quadrature = ProductQuadrature(self.azimuthal, self.polar)
        self.cache = cache
        self.timings = TrackingTimings()
        self._table2d: TrackTable2D | None = None
        self._segments: SegmentData | None = None
        self._volumes: np.ndarray | None = None
        self._sweep_topology = None
        self._sweep_plan = None

    # ------------------------------------------------------------ pipeline

    def generate(self) -> "TrackGenerator":
        """Run laydown, linking, chain construction and 2D ray tracing, or
        restore their products from the tracking cache."""
        self.timings = timings = TrackingTimings()
        if self.cache is not None:
            t0 = time.perf_counter()
            timings.cache_hit = self.cache.load(self)
            timings.cache_seconds += time.perf_counter() - t0
            if timings.cache_hit:
                return self
        t0 = time.perf_counter()
        laydown = lay_tracks(self.geometry, self.azimuthal)
        links = link_tracks(laydown, self.geometry)
        t1 = time.perf_counter()
        timings.laydown_seconds += t1 - t0
        self._table2d = TrackTable2D(**laydown, **links, **build_chains(laydown, links))
        t2 = time.perf_counter()
        timings.chain_seconds += t2 - t1
        self._segments = trace_all(self.geometry, self._table2d)
        self._volumes = self._tracked_volumes()
        t3 = time.perf_counter()
        timings.trace2d_seconds += t3 - t2
        if self.cache is not None:
            self.cache.store(self)
            timings.cache_seconds += time.perf_counter() - t3
        return self

    def _require(self, attr: str):
        value = getattr(self, attr)
        if value is None:
            raise TrackingError("call generate() before accessing tracking products")
        return value

    def track_table_2d(self) -> TrackTable2D:
        """The radial laydown, its links and its chains: the columns every
        consumer (tracers, sweep topology, 3D laydown, interface matching,
        tracking archive) reads. Built by :meth:`generate`, installed from
        the archived columns on a tracking-cache hit, or shared with the
        generator :meth:`TrackGenerator3D.adopt_radial` was given.
        """
        return self._require("_table2d")

    @property
    def tracks(self) -> list[Track2D]:
        """Object view of the table's tracks, built on first access (for
        tests, examples and the oracle tracer / reference sweep; no solve path
        reads it)."""
        return self.track_table_2d().tracks

    @property
    def chains(self) -> list[Chain]:
        """Object view of the table's chains, built with :attr:`tracks`."""
        return self.track_table_2d().chains

    @property
    def segments(self) -> SegmentData:
        return self._require("_segments")

    @property
    def num_tracks(self) -> int:
        return self.track_table_2d().num_tracks

    @property
    def num_segments(self) -> int:
        return self.segments.num_segments

    # ------------------------------------------------------------- volumes

    def _tracked_volumes(self) -> np.ndarray:
        """FSR areas from track sums: ``V_r = sum_a w_a d_a sum(l in r)``.

        Each azimuthal family alone estimates every FSR area; averaging
        over families with the azimuthal weights keeps the estimate
        consistent with the sweep normalisation (exact conservation).
        """
        segments = self.segments
        per_angle = self.azimuthal.weights * self.azimuthal.spacing
        weights = np.repeat(per_angle[self.track_table_2d().azim], segments.counts())
        return segments.fsr_path_lengths(self.geometry.num_fsrs, weights)

    @property
    def fsr_volumes(self) -> np.ndarray:
        """Tracked FSR areas (2D 'volumes'), shape ``(num_fsrs,)``."""
        return self._require("_volumes")

    # ------------------------------------------------------- sweep caching

    def sweep_topology(self):
        """Cached 2D :class:`~repro.solver.backends.plan.TrackTopology`.

        Link tables and sweep weights depend only on the laydown, so every
        sweep over this generator shares one topology instead of
        rebuilding them with Python loops per sweeper construction.
        """
        if self._sweep_topology is None:
            from repro.solver.backends.plan import TrackTopology

            table = self.track_table_2d()
            self._sweep_topology = TrackTopology.from_links(
                table,
                self.quadrature.weights_table()[table.azim],
                1.0 / self.polar.sin_theta,
            )
        return self._sweep_topology

    def sweep_plan(self):
        """Cached 2D :class:`~repro.solver.backends.plan.SweepPlan`.

        The radial segmentation is traced once in :meth:`generate`, so the
        plan over it is immutable and shared by every 2D sweep instance
        (notably the per-plane sweeps of the 2D/1D baseline).
        """
        if self._sweep_plan is None:
            from repro.solver.backends.plan import SweepPlan

            self._sweep_plan = SweepPlan(self.sweep_topology(), self.segments)
        return self._sweep_plan

    def segment_angles(self) -> np.ndarray:
        """Azimuthal index per 2D segment (for sweep weight lookups)."""
        azim = self.track_table_2d().azim.astype(np.int32)
        return np.repeat(azim, self.segments.counts())


class TrackGenerator3D(TrackGenerator):
    """3D tracking pipeline over an extruded geometry."""

    def __init__(
        self,
        geometry3d: ExtrudedGeometry,
        num_azim: int,
        azim_spacing: float,
        polar_spacing: float,
        polar: PolarQuadrature | None = None,
        num_polar: int = 4,
        cache=None,
    ) -> None:
        super().__init__(
            geometry3d.radial,
            num_azim,
            azim_spacing,
            polar=polar,
            num_polar=num_polar,
            cache=cache,
        )
        self.geometry3d = geometry3d
        self.polar_spacing = float(polar_spacing)
        self._chain_tables: dict[int, ChainSegments] | None = None  # a view
        self._volumes3d: np.ndarray | None = None
        self._track_table: TrackTable3D | None = None
        self._track_objects: tuple[list[Track3D], list[Stack3D]] | None = None
        self._sweep_topology3d = None
        self._sweep_plan3d = None

    def adopt_radial(self, radial: TrackGenerator) -> "TrackGenerator3D":
        """Share another generator's radial products instead of rebuilding.

        Used by z-decomposed runs: every axial domain sees the same radial
        geometry, so tracks, links, chains and 2D segments are physically
        identical across domains — sharing them guarantees the identical
        chain indexing the interface matching relies on (and skips the
        redundant ray tracing). The radial generator must be generated and
        wrap the same geometry with the same quadrature.
        """
        if radial.geometry is not self.geometry:
            raise TrackingError("adopt_radial requires the same radial geometry object")
        if (
            radial.azimuthal.num_azim != self.azimuthal.num_azim
            or radial.azimuthal.requested_spacing != self.azimuthal.requested_spacing
        ):
            raise TrackingError("adopt_radial requires identical tracking parameters")
        self._table2d = radial.track_table_2d()
        self._segments = radial.segments
        self._volumes = radial.fsr_volumes
        self._sweep_topology = radial._sweep_topology
        self._sweep_plan = radial._sweep_plan
        return self

    def generate(self) -> "TrackGenerator3D":
        """Build the 3D laydown over the radial one: the adopted laydown,
        else :meth:`TrackGenerator.generate`'s (the one path through the
        tracking cache, which holds radial laydowns only)."""
        if self._table2d is None:
            super().generate()
        else:
            self.timings = TrackingTimings()
        # Views of the previous laydown, if any.
        self._track_objects = self._chain_tables = None
        g3, mesh = self.geometry3d, self.geometry3d.axial_mesh
        timings = self.timings
        t0 = time.perf_counter()
        radial = self.track_table_2d()
        laydown = lay_3d_stacks(radial, self.polar, self.polar_spacing, mesh.zmin, mesh.zmax)
        t1 = time.perf_counter()
        timings.stack_seconds += t1 - t0
        links = link_3d_stacks(
            laydown, radial, mesh.zmin, mesh.zmax, g3.boundary_zmin, g3.boundary_zmax
        )
        t2 = time.perf_counter()
        timings.link_seconds += t2 - t1
        self._track_table = TrackTable3D(
            **laydown, **links, **build_chain_tables(radial, self.segments),
            chain_closed=radial.chain_closed, z_edges=mesh.z_edges,
        )
        timings.chain_seconds += time.perf_counter() - t2
        return self

    def track_table(self) -> TrackTable3D:
        """The 3D laydown and chain tables: the columns every consumer
        (tracer, sweep topology, storage strategies, z-interface
        matching) reads. Built by :meth:`generate`, cache hit or miss.
        """
        return self._require("_track_table")

    def _objects(self) -> tuple[list[Track3D], list[Stack3D]]:
        if self._track_objects is None:
            self._track_objects = track_objects(self.track_table())
        return self._track_objects

    @property
    def tracks3d(self) -> list[Track3D]:
        """Object view of the table's tracks, built on first access (for
        tests, examples and debugging; no solve path reads it)."""
        return self._objects()[0]

    @property
    def stacks(self) -> list[Stack3D]:
        """Object view of the table's stacks, built with :attr:`tracks3d`."""
        return self._objects()[1]

    @property
    def chain_tables(self) -> dict[int, ChainSegments]:
        """Per-chain object view of the table's chain CSR, built on first
        access (tests, the scalar tracer, CCM classification)."""
        if self._chain_tables is None:
            table = self.track_table()
            self._chain_tables = chain_table_objects(
                table.bounds, table.fsrs, table.bound_ptr
            )
        return self._chain_tables

    @property
    def num_tracks_3d(self) -> int:
        return self.track_table().num_tracks

    def is_chain_closed(self, chain_index: int) -> bool:
        return bool(self.track_table_2d().chain_closed[chain_index])

    # ------------------------------------------------------- sweep caching

    def _track_weights_3d(self, scale: float) -> np.ndarray:
        """``scale * w_a * w_p * spacing_a * z_spacing`` for every 3D track.

        The array form, factor for factor, of :meth:`track_weight_3d`
        (``scale = pi``) and :meth:`track_volume_weight_3d` (``1/2``).
        """
        table = self.track_table()
        a = self.track_table_2d().chain_azim[table.chain]
        return (
            scale
            * self.azimuthal.weights[a]
            * self.polar.weights[table.polar]
            * self.azimuthal.spacing[a]
            * table.z_spacing
        )

    def sweep_topology_3d(self):
        """Cached 3D :class:`~repro.solver.backends.plan.TrackTopology`.

        3D sweep weights and link tables depend only on the stack laydown,
        never on segmentation, so OTF re-segmentation and repeated sweeper
        construction all reuse one topology.
        """
        if self._sweep_topology3d is None:
            from repro.constants import FOUR_PI
            from repro.solver.backends.plan import TrackTopology

            self._sweep_topology3d = TrackTopology.from_links(
                self.track_table(), self._track_weights_3d(0.25 * FOUR_PI), None
            )
        return self._sweep_topology3d

    def sweep_plan_3d(self, segments: SegmentData):
        """Cached 3D sweep plan for ``segments``.

        Keyed by segment-object identity; when a *different* SegmentData
        arrives (OTF/Manager regeneration) the previous plan's layout
        products are reused via :meth:`SweepPlan.rebind` whenever the
        per-track offsets match, so only the FSR/length gathers refresh.
        """
        plan = self._sweep_plan3d
        if plan is None or plan.segments is not segments:
            if plan is None:
                from repro.solver.backends.plan import SweepPlan

                plan = SweepPlan(self.sweep_topology_3d(), segments)
            else:
                plan = plan.rebind(segments)
            self._sweep_plan3d = plan
        return plan

    # --------------------------------------------------------- segmentation

    def trace_track_3d(self, track: Track3D) -> tuple[np.ndarray, np.ndarray]:
        """On-the-fly segmentation of one 3D track: ``(fsr3d_ids, lengths)``."""
        segments = trace_3d_batch(self.track_table(), np.array([track.uid]))
        return segments.fsr_ids, segments.lengths

    def trace_all_3d(self) -> SegmentData:
        """Explicit segmentation of every 3D track (the EXP path)."""
        return trace_3d_batch(self.track_table())

    def track_weight_3d(self, track: Track3D) -> float:
        """Per-traversal sweep weight of a 3D track."""
        a = int(self.track_table_2d().chain_azim[track.chain])
        return self.quadrature.track_weight_3d(a, track.polar, track.z_spacing)

    def track_volume_weight_3d(self, track: Track3D) -> float:
        """Volume-tally weight: ``w_a w_p / 2 * spacing_a * z_spacing``."""
        a = self.track_table_2d().chain_azim[track.chain]
        return float(
            0.5
            * self.azimuthal.weights[a]
            * self.polar.weights[track.polar]
            * self.azimuthal.spacing[a]
            * track.z_spacing
        )

    def fsr_volumes_3d(self, segments3d: SegmentData | None = None) -> np.ndarray:
        """Tracked 3D FSR volumes (computed lazily, cached)."""
        if self._volumes3d is None:
            segs = segments3d if segments3d is not None else self.trace_all_3d()
            weights = np.repeat(self._track_weights_3d(0.5), segs.counts())
            self._volumes3d = segs.fsr_path_lengths(self.geometry3d.num_fsrs, weights)
        return self._volumes3d
