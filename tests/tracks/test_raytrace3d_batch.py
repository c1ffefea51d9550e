"""The batched 3D tracer against the scalar oracle, bit for bit.

``trace_3d_batch`` must reproduce ``trace_3d_track`` exactly — offsets,
int32 FSR ids and float64 lengths — because every golden and every
``keff_hex`` pin sits downstream of the segment arrays. The scalar tracer
has no production caller; it exists for these comparisons.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.tracks.raytrace3d as raytrace3d
from repro.errors import TrackingError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import Material
from repro.parallel import ZDecomposedSolver
from repro.solver import MOCSolver
from repro.trackmgmt.manager import estimate_segments_batch, estimate_track_segments
from repro.tracks import TrackGenerator, TrackGenerator3D
from repro.tracks.chains import Chain
from repro.tracks.raytrace3d import (
    ChainSegments,
    TrackTable3D,
    trace_3d_batch,
    trace_3d_track,
)
from repro.tracks.segments import SegmentData
from repro.tracks.track import Track3D

_A = Material("batch3d-a", sigma_t=[1.0], sigma_s=[[0.5]])
_B = Material("batch3d-b", sigma_t=[2.0], sigma_s=[[0.3]])


def oracle(tracks, chains, tables, geometry3d) -> SegmentData:
    """The concatenated per-track scalar results."""
    closed = {c.index: c.closed for c in chains}
    fsrs, lengths, offsets = [], [], [0]
    for t in tracks:
        f, seg = trace_3d_track(t, tables[t.chain], geometry3d, wrap=closed[t.chain])
        fsrs.append(f)
        lengths.append(seg)
        offsets.append(offsets[-1] + f.size)
    return SegmentData(
        np.concatenate(lengths) if lengths else np.empty(0),
        np.concatenate(fsrs) if fsrs else np.empty(0, dtype=np.int32),
        np.array(offsets),
    )


def assert_same(got: SegmentData, want: SegmentData) -> None:
    np.testing.assert_array_equal(got.offsets, want.offsets)
    np.testing.assert_array_equal(got.fsr_ids, want.fsr_ids)
    np.testing.assert_array_equal(got.lengths, want.lengths)
    assert got.fsr_ids.dtype == np.int32 and got.lengths.dtype == np.float64


def assert_matches_oracle(tg: TrackGenerator3D) -> None:
    assert_same(
        tg.trace_all_3d(),
        oracle(tg.tracks3d, tg.chains, tg.chain_tables, tg.geometry3d),
    )


# ------------------------------------------------------------ real generators


def lattice_generator(
    width=1.5, height=2.0, z_edges=(0.0, 0.8, 2.0), radial_bc=None,
    bc_zmin=BoundaryCondition.REFLECTIVE, bc_zmax=BoundaryCondition.REFLECTIVE,
    num_azim=4, azim_spacing=0.5, polar_spacing=0.5, num_polar=2,
):
    a = make_homogeneous_universe(_A)
    b = make_homogeneous_universe(_B)
    radial = Geometry(Lattice([[a, b], [b, a]], width, height), boundary=radial_bc)
    g3 = ExtrudedGeometry(
        radial, AxialMesh(list(z_edges)), boundary_zmin=bc_zmin, boundary_zmax=bc_zmax
    )
    return TrackGenerator3D(
        g3, num_azim=num_azim, azim_spacing=azim_spacing,
        polar_spacing=polar_spacing, num_polar=num_polar,
    ).generate()


_SIDES = ("xmin", "xmax", "ymin", "ymax")
radial_bcs = st.one_of(
    st.none(),  # all reflective: closed chains
    st.fixed_dictionaries(
        {side: st.sampled_from([BoundaryCondition.VACUUM, BoundaryCondition.REFLECTIVE])
         for side in _SIDES}
    ),
)
axial_bcs = st.sampled_from([BoundaryCondition.REFLECTIVE, BoundaryCondition.VACUUM])
layer_heights = st.lists(
    st.floats(min_value=0.2, max_value=2.5, allow_nan=False), min_size=1, max_size=5
)


@settings(max_examples=30, deadline=None)
@given(
    num_azim=st.sampled_from([4, 8, 12, 16]),
    azim_spacing=st.floats(min_value=0.15, max_value=0.9),
    polar_spacing=st.floats(min_value=0.15, max_value=1.5),
    num_polar=st.sampled_from([2, 4, 6]),
    heights=layer_heights,
    radial_bc=radial_bcs,
    bc_zmin=axial_bcs,
    bc_zmax=axial_bcs,
)
def test_batch_equals_scalar_oracle(
    num_azim, azim_spacing, polar_spacing, num_polar, heights, radial_bc, bc_zmin, bc_zmax
):
    try:
        tg = lattice_generator(
            z_edges=np.concatenate([[0.0], np.cumsum(heights)]),
            radial_bc=radial_bc, bc_zmin=bc_zmin, bc_zmax=bc_zmax,
            num_azim=num_azim, azim_spacing=azim_spacing,
            polar_spacing=polar_spacing, num_polar=num_polar,
        )
    except TrackingError:
        assume(False)
    assert_matches_oracle(tg)
    table = tg.track_table()
    np.testing.assert_array_equal(
        estimate_segments_batch(table),
        [estimate_track_segments(tg, t) for t in tg.tracks3d],
    )


class TestClosedChains:
    def test_single_wrap(self):
        tg = lattice_generator()
        lengths = {c.index: c.length for c in tg.chains}
        wrapped = [
            t for t in tg.tracks3d
            if tg.chains[t.chain].closed and t.s1 > lengths[t.chain]
        ]
        assert wrapped, "expected closed-chain tracks with s1 > L"
        assert_matches_oracle(tg)

    def test_helix_spanning_several_wraps(self):
        """A tall, thin reflective column: the helix advance per height
        traversal is several chain lengths."""
        tg = lattice_generator(
            width=0.5, height=0.5, z_edges=(0.0, 3.0, 7.5, 12.0), polar_spacing=0.4
        )
        wraps = max(
            int(t.s1 // tg.chains[t.chain].length) - int(t.s0 // tg.chains[t.chain].length)
            for t in tg.tracks3d if tg.chains[t.chain].closed
        )
        assert wraps >= 2
        assert_matches_oracle(tg)


# ------------------------------------------------------- hand-built tables


def synthetic(tracks_szsz, bounds, closed, z_edges=(0.0, 0.8, 2.0, 3.0)):
    """One chain with radial ``bounds``; tracks given as (s0, z0, s1, z1)."""
    radial = Geometry(Lattice([[make_homogeneous_universe(_A)]], 1.0, 1.0))
    g3 = ExtrudedGeometry(radial, AxialMesh(list(z_edges)))
    chain = Chain(
        index=0, elements=[], closed=closed, offsets=[], length=float(bounds[-1]), azim=0
    )
    tables = {0: ChainSegments(0, np.asarray(bounds), np.arange(len(bounds) - 1))}
    tracks = [
        Track3D(uid=i, chain=0, polar=0, s0=s0, z0=z0, s1=s1, z1=z1,
                theta=1.0, z_spacing=0.1)
        for i, (s0, z0, s1, z1) in enumerate(tracks_szsz)
    ]

    def table():
        return TrackTable3D(
            np.array(tracks_szsz), np.zeros(len(tracks)), np.zeros(len(tracks)),
            np.full(len(tracks), 0.1), chain_closed=[chain.closed],
            bounds=tables[0].bounds, fsrs=tables[0].fsrs, bound_ptr=[0, len(bounds)],
            z_edges=g3.axial_mesh.z_edges,
        )

    return tracks, [chain], tables, g3, table


_BOUNDS = [0.0, 1.2, 2.5, 4.1, 5.0]


class TestHandBuiltCases:
    def check(self, tracks_szsz, closed):
        tracks, chains, tables, g3, table = synthetic(tracks_szsz, _BOUNDS, closed)
        want = oracle(tracks, chains, tables, g3)
        assert_same(trace_3d_batch(table()), want)
        return want

    def test_closed_chain_crossing_the_seam(self):
        want = self.check([(3.7, 0.0, 8.3, 3.0), (4.9, 3.0, 6.0, 0.0)], closed=True)
        assert want.counts().min() > 2

    def test_two_or_more_wraps(self):
        want = self.check(
            [(0.4, 0.0, 13.9, 3.0), (6.2, 3.0, 22.0, 0.0), (4.999, 0.1, 15.001, 2.9)],
            closed=True,
        )
        # 2.7 chain lengths of 4 intervals each, plus the z-planes.
        assert want.counts()[0] >= 10

    def test_wrap_end_points_on_seam_and_bounds(self):
        self.check(
            [(0.0, 0.0, 5.0, 3.0), (5.0, 0.0, 10.0, 3.0), (1.2, 0.0, 6.2, 3.0),
             (2.5, 3.0, 12.5, 0.0)],
            closed=True,
        )

    def test_ends_exactly_on_z_planes(self):
        self.check(
            [(0.3, 0.0, 4.0, 0.8), (0.3, 0.8, 4.0, 2.0), (0.3, 2.0, 4.0, 0.8),
             (0.3, 3.0, 4.0, 2.0), (0.3, 0.8, 4.0, 0.8 + 1e-12)],
            closed=False,
        )

    def test_vertical_and_horizontal_tracks(self):
        want = self.check(
            [(2.0, 0.0, 2.0, 3.0), (2.0, 3.0, 2.0 + 1e-15, 0.0),  # ds = 0: no radial family
             (0.3, 1.0, 4.7, 1.0), (0.3, 0.8, 4.7, 0.8)],  # dz = 0: no axial family
            closed=False,
        )
        np.testing.assert_array_equal(want.counts(), [3, 3, 4, 4])

    def test_vertical_track_on_closed_chain(self):
        self.check([(7.0, 0.0, 7.0, 3.0), (1.2, 3.0, 1.2, 0.0)], closed=True)

    def test_coincident_radial_and_axial_breakpoints(self):
        """Both families yield t = 0.5 exactly: one breakpoint, not two."""
        tracks, chains, tables, g3, table = synthetic(
            [(0.0, 0.0, 4.0, 4.0), (1.0, 4.0, 3.0, 0.0)], [0.0, 2.0, 4.0], False,
            z_edges=(0.0, 2.0, 4.0),
        )
        want = oracle(tracks, chains, tables, g3)
        assert_same(trace_3d_batch(table()), want)
        np.testing.assert_array_equal(want.counts(), [2, 2])

    def test_breakpoints_within_tolerance_of_the_ends(self):
        self.check(
            [(1.2, 0.0, 2.5, 3.0), (1.2 - 5e-13, 0.0, 2.5 + 5e-13, 3.0),
             (1.2 - 2e-12, 0.0, 2.5 + 2e-12, 3.0), (1.2 + 1e-13, 0.8 - 1e-13, 4.1, 2.0)],
            closed=False,
        )

    def test_zero_length_track_is_rejected(self):
        tracks, chains, tables, g3, table = synthetic([(1.0, 1.0, 1.0, 1.0)], _BOUNDS, False)
        with pytest.raises(TrackingError, match="zero length"):
            trace_3d_track(tracks[0], tables[0], g3, wrap=False)
        with pytest.raises(TrackingError, match="zero length"):
            table()

    def test_empty_subset(self):
        *_, table = synthetic([(0.3, 0.0, 4.0, 3.0)], _BOUNDS, False)
        empty = trace_3d_batch(table(), np.empty(0, dtype=np.int64))
        assert empty.num_tracks == 0 and empty.num_segments == 0


# ------------------------------------------------------------------ subsets


class TestSubsets:
    @pytest.fixture(scope="class")
    def tg(self):
        return lattice_generator(num_azim=8, polar_spacing=0.3)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_subset_equals_slices_of_full(self, tg, data):
        full = tg.trace_all_3d()
        uids = data.draw(
            st.lists(st.integers(0, tg.num_tracks_3d - 1), max_size=40)
        )
        got = trace_3d_batch(tg.track_table(), np.array(uids, dtype=np.int64))
        assert got.num_tracks == len(uids)
        for row, uid in enumerate(uids):
            for a, b in zip(got.track_segments(row), full.track_segments(uid)):
                np.testing.assert_array_equal(a, b)

    def test_reversed_order(self, tg):
        full = tg.trace_all_3d()
        rev = trace_3d_batch(tg.track_table(), np.arange(tg.num_tracks_3d)[::-1])
        np.testing.assert_array_equal(rev.counts(), full.counts()[::-1])
        assert rev.track_length(0) == full.track_length(tg.num_tracks_3d - 1)

    def test_block_size_is_invisible(self, tg, monkeypatch):
        full = tg.trace_all_3d()
        assert tg.num_tracks_3d > 7
        monkeypatch.setattr(raytrace3d, "BLOCK_TRACKS", 7)
        assert_same(tg.trace_all_3d(), full)

    def test_single_track_api(self, tg):
        full = tg.trace_all_3d()
        for t in tg.tracks3d[::17]:
            fsrs, lengths = tg.trace_track_3d(t)
            efsrs, elengths = full.track_segments(t.uid)
            np.testing.assert_array_equal(fsrs, efsrs)
            np.testing.assert_array_equal(lengths, elengths)

    def test_cache_restored_table_is_the_fresh_one(self, tg, tmp_path):
        from repro.tracks.io import load_tracking, save_tracking

        path = save_tracking(tmp_path / "tracking.npz", tg)
        restored = TrackGenerator3D(
            tg.geometry3d, num_azim=8, azim_spacing=0.5, polar_spacing=0.3, num_polar=2
        )
        load_tracking(path, restored)
        assert restored._track_table is not None  # installed from t3_szsz
        fresh = tg.track_table()
        for name in TrackTable3D.__slots__:
            np.testing.assert_array_equal(
                getattr(restored.track_table(), name), getattr(fresh, name)
            )


# --------------------------------------------- loops the same table replaced


class TestDownstreamLoops:
    """Array expressions vs the per-track loops they replaced, bitwise."""

    @pytest.fixture(scope="class")
    def tg(self):
        return lattice_generator(
            num_azim=8, radial_bc={"xmin": BoundaryCondition.VACUUM},
            bc_zmax=BoundaryCondition.VACUUM,
        )

    def test_volumes(self, tg):
        segs = tg.trace_all_3d()
        weights = np.empty(segs.num_segments)
        for t in tg.tracks3d:
            lo, hi = segs.offsets[t.uid], segs.offsets[t.uid + 1]
            weights[lo:hi] = tg.track_volume_weight_3d(t)
        np.testing.assert_array_equal(
            tg.fsr_volumes_3d(segs),
            segs.fsr_path_lengths(tg.geometry3d.num_fsrs, weights),
        )

    def test_sweep_weights(self, tg):
        np.testing.assert_array_equal(
            tg.sweep_topology_3d().weights,
            np.array([tg.track_weight_3d(t) for t in tg.tracks3d]),
        )

    @pytest.mark.parametrize("three_d", [False, True])
    def test_link_tables(self, tg, three_d):
        tracks = tg.tracks3d if three_d else tg.tracks
        n = len(tracks)
        next_track = np.zeros((n, 2), dtype=np.int64)
        next_dir = np.zeros((n, 2), dtype=np.int64)
        terminal = np.zeros((n, 2), dtype=bool)
        interface = np.zeros((n, 2), dtype=bool)
        for t in tracks:
            for d, (link, iface) in enumerate(
                ((t.link_fwd, t.interface_end), (t.link_bwd, t.interface_start))
            ):
                if link is None:
                    terminal[t.uid, d] = True
                    interface[t.uid, d] = iface
                else:
                    next_track[t.uid, d] = link.track
                    next_dir[t.uid, d] = 0 if link.forward else 1
        topology = tg.sweep_topology_3d() if three_d else tg.sweep_topology()
        assert terminal.any() and not terminal.all()
        np.testing.assert_array_equal(topology.next_track, next_track)
        np.testing.assert_array_equal(topology.next_dir, next_dir)
        np.testing.assert_array_equal(topology.terminal, terminal)
        np.testing.assert_array_equal(topology.interface, interface)

    def test_interface_ends_survive(self, tg):
        """Interface flags come from slab generators; exercise them too."""
        slab = ExtrudedGeometry(
            tg.geometry, AxialMesh([0.0, 1.0]),
            boundary_zmin=BoundaryCondition.INTERFACE,
            boundary_zmax=BoundaryCondition.INTERFACE,
        )
        radial = TrackGenerator(tg.geometry, num_azim=8, azim_spacing=0.5).generate()
        gen = TrackGenerator3D(
            slab, num_azim=8, azim_spacing=0.5, polar_spacing=0.5, num_polar=2
        ).adopt_radial(radial).generate()
        topology = gen.sweep_topology_3d()
        want = np.array(
            [[t.link_fwd is None and t.interface_end,
              t.link_bwd is None and t.interface_start] for t in gen.tracks3d]
        )
        assert want.any()
        np.testing.assert_array_equal(topology.interface, want)


# ------------------------------------------------------------------ the spy


class TestNoScalarTracerInProduction:
    """Every 3D path funnels through the batched kernel: a solve makes
    zero ``trace_3d_track`` calls (and at least one batched call)."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        import repro.tracks as tracks_pkg

        counts = {"scalar": 0, "batch": 0}
        scalar, batch = raytrace3d.trace_3d_track, raytrace3d.trace_3d_batch

        def spy_scalar(*args, **kwargs):
            counts["scalar"] += 1
            return scalar(*args, **kwargs)

        def spy_batch(*args, **kwargs):
            counts["batch"] += 1
            return batch(*args, **kwargs)

        for module in (raytrace3d, tracks_pkg):
            monkeypatch.setattr(module, "trace_3d_track", spy_scalar)
        import repro.trackmgmt.manager as manager
        import repro.tracks.generator as generator

        for module in (raytrace3d, tracks_pkg, generator, manager):
            monkeypatch.setattr(module, "trace_3d_batch", spy_batch)
        return counts

    @pytest.mark.parametrize("storage", ["EXP", "OTF", "MANAGER", "CCM"])
    def test_single_domain_solve(self, small_geometry_3d, calls, storage):
        solver = MOCSolver.for_3d(
            small_geometry_3d, num_azim=4, azim_spacing=0.8, polar_spacing=0.8,
            num_polar=2, storage=storage, resident_memory_bytes=600, max_iterations=3,
        )
        solver.solve()
        assert calls == {"scalar": 0, "batch": calls["batch"]}
        assert calls["batch"] >= 1
        if storage == "MANAGER":
            strategy = solver.storage_strategy
            assert 0 < strategy.num_resident < solver.trackgen.num_tracks_3d
            # one resident trace, one reference pass, one subset per sweep
            assert calls["batch"] == 2 + strategy.sweeps_served

    def test_z_decomposed_inproc_solve(self, two_group_fissile, calls):
        u = make_homogeneous_universe(two_group_fissile)
        g3 = ExtrudedGeometry(
            Geometry(Lattice([[u]], 3.0, 2.0)), AxialMesh.uniform(0.0, 4.0, 4),
            boundary_zmin=BoundaryCondition.REFLECTIVE,
            boundary_zmax=BoundaryCondition.REFLECTIVE,
        )
        ZDecomposedSolver(
            g3, num_domains=2, num_azim=4, azim_spacing=0.7, polar_spacing=0.7,
            num_polar=2, max_iterations=3, engine="inproc",
        ).solve()
        assert calls["scalar"] == 0
        assert calls["batch"] == 2  # one full trace per slab
