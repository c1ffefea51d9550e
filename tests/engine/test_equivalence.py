"""Cross-engine equivalence: the mp engines must reproduce ``inproc`` bitwise.

The inproc simulator is the correctness oracle; the ``mp`` engine executes
the same Route/InterfaceExchange tables on real worker processes over
shared memory, and the ``mp-async`` engine re-executes them again under
the relaxed mailbox/epoch protocol (no global barriers, workers normalise
their own flux). Every configuration here asserts *bitwise* agreement —
identical k-eff (far stronger than the 1e-10 acceptance bound),
``np.array_equal`` scalar flux, and identical CommStats traffic — across
both process engines, worker counts and both decomposition styles (2D
lattice grid, 3D axial stack).
"""

import numpy as np
import pytest

from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry, reflector_layer_map
from repro.geometry.universe import make_homogeneous_universe, make_pin_cell_universe
from repro.parallel import DecomposedSolver, ZDecomposedSolver


def extruded(material, layers=4, height=4.0, bc_top=BoundaryCondition.REFLECTIVE,
             layer_material=None):
    u = make_homogeneous_universe(material)
    radial = Geometry(Lattice([[u]], 3.0, 2.0))
    return ExtrudedGeometry(
        radial, AxialMesh.uniform(0.0, height, layers),
        layer_material=layer_material,
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=bc_top,
    )


@pytest.fixture()
def pin_lattice(uo2, moderator):
    """A 2x2 lattice of heterogeneous pin cells (splits into 2x2 domains)."""
    pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=2, num_sectors=4)
    return Geometry(Lattice([[pin, pin], [pin, pin]], 1.26, 1.26), name="pin-2x2")


def solve_2d(geometry, engine, workers=None, max_iterations=12, cmfd=False):
    solver = DecomposedSolver(
        geometry, 2, 2, num_azim=4, azim_spacing=0.5, num_polar=2,
        max_iterations=max_iterations, engine=engine, workers=workers,
        cmfd=cmfd,
    )
    return solver, solver.solve()


def solve_3d(geometry3d, engine, num_domains=2, workers=None, max_iterations=8,
             cmfd=False):
    solver = ZDecomposedSolver(
        geometry3d, num_domains=num_domains, num_azim=4, azim_spacing=0.7,
        polar_spacing=0.7, num_polar=2, max_iterations=max_iterations,
        engine=engine, workers=workers, cmfd=cmfd,
    )
    return solver, solver.solve()


def assert_equivalent(oracle_pair, candidate_pair):
    (oracle_solver, oracle), (solver, result) = oracle_pair, candidate_pair
    assert result.num_iterations == oracle.num_iterations
    assert result.keff == oracle.keff  # bitwise, hence trivially <= 1e-10
    assert abs(result.keff - oracle.keff) <= 1e-10
    assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
    assert result.comm_bytes == oracle.comm_bytes
    assert result.comm_messages == oracle.comm_messages
    assert solver.comm.stats.per_pair_bytes == oracle_solver.comm.stats.per_pair_bytes
    for key in ("cmfd_solves", "cmfd_iterations", "cmfd_skips", "cmfd_limited"):
        assert result.cmfd_stats.get(key) == oracle.cmfd_stats.get(key)


#: Both real-process engines must be interchangeable with the simulator.
MP_ENGINES = ("mp", "mp-async")


class TestPinCell2D:
    @pytest.mark.parametrize("engine", MP_ENGINES)
    def test_engine_matches_inproc_2x2(self, pin_lattice, engine):
        oracle = solve_2d(pin_lattice, "inproc")
        candidate = solve_2d(pin_lattice, engine)
        assert candidate[1].engine == engine
        assert candidate[1].num_workers == 4
        assert_equivalent(oracle, candidate)

    @pytest.mark.parametrize("engine", MP_ENGINES)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_is_invisible(self, pin_lattice, engine, workers):
        """Round-robin domain placement must not leak into the numbers."""
        oracle = solve_2d(pin_lattice, "inproc")
        candidate = solve_2d(pin_lattice, engine, workers=workers)
        assert candidate[1].num_workers == workers
        assert_equivalent(oracle, candidate)


class TestAxial3D:
    @pytest.mark.parametrize("engine", MP_ENGINES)
    def test_engine_matches_inproc_z2_heterogeneous(
        self, two_group_fissile, two_group_absorber, engine
    ):
        """Axially heterogeneous, leaking stack split across 2 z-domains."""
        layer_map = reflector_layer_map(two_group_absorber, {2, 3})
        g3 = extruded(
            two_group_fissile, layers=4, height=8.0,
            bc_top=BoundaryCondition.VACUUM, layer_material=layer_map,
        )
        oracle = solve_3d(g3, "inproc")
        candidate = solve_3d(g3, engine)
        assert_equivalent(oracle, candidate)

    @pytest.mark.parametrize("engine", MP_ENGINES)
    def test_engine_matches_inproc_z4_two_workers(self, two_group_fissile, engine):
        g3 = extruded(two_group_fissile, layers=4)
        oracle = solve_3d(g3, "inproc", num_domains=4)
        candidate = solve_3d(g3, engine, num_domains=4, workers=2)
        assert candidate[1].num_workers == 2
        assert_equivalent(oracle, candidate)


class TestC5G73D:
    @pytest.mark.parametrize("engine", MP_ENGINES)
    def test_engine_matches_inproc_on_coarse_c5g7(self, engine):
        """The paper's benchmark problem, coarse: full C5G7 3D material
        heterogeneity (7 groups, fuel + axial reflector) over a z=2
        decomposition."""
        from repro.geometry.c5g7 import C5G7Spec, build_c5g7_3d
        from repro.materials.c5g7 import c5g7_library

        def build():
            return build_c5g7_3d(
                c5g7_library(),
                C5G7Spec(
                    pins_per_assembly=3, reflector_refinement=2,
                    fuel_layers=2, reflector_layers=2,
                ),
            )

        oracle = solve_3d(build(), "inproc", max_iterations=6)
        candidate = solve_3d(build(), engine, max_iterations=6)
        assert_equivalent(oracle, candidate)


class TestCmfdEquivalence:
    """With the accelerator on, every engine must still be bitwise
    interchangeable: the coarse tallies are reduced in rank order and the
    coarse solve runs on the parent, so the prolonged flux — and therefore
    the whole accelerated trajectory — is identical across engines."""

    @pytest.mark.parametrize("engine", MP_ENGINES)
    def test_2d_accelerated_matches_inproc(self, pin_lattice, engine):
        oracle = solve_2d(pin_lattice, "inproc", cmfd=True)
        candidate = solve_2d(pin_lattice, engine, cmfd=True)
        assert oracle[1].cmfd_stats["cmfd_solves"] == oracle[1].num_iterations
        assert_equivalent(oracle, candidate)

    @pytest.mark.parametrize("engine", MP_ENGINES)
    def test_2d_accelerated_two_workers(self, pin_lattice, engine):
        oracle = solve_2d(pin_lattice, "inproc", cmfd=True)
        candidate = solve_2d(pin_lattice, engine, workers=2, cmfd=True)
        assert candidate[1].num_workers == 2
        assert_equivalent(oracle, candidate)

    @pytest.mark.parametrize("engine", MP_ENGINES)
    def test_3d_accelerated_matches_inproc(
        self, two_group_fissile, two_group_absorber, engine
    ):
        layer_map = reflector_layer_map(two_group_absorber, {2, 3})
        g3 = extruded(
            two_group_fissile, layers=4, height=8.0,
            bc_top=BoundaryCondition.VACUUM, layer_material=layer_map,
        )
        oracle = solve_3d(g3, "inproc", cmfd=True)
        candidate = solve_3d(g3, engine, cmfd=True)
        assert oracle[1].cmfd_stats["cmfd_solves"] == oracle[1].num_iterations
        assert_equivalent(oracle, candidate)

    def test_accelerated_differs_from_unaccelerated(self, pin_lattice):
        """Sanity guard: cmfd=True must actually change the trajectory,
        otherwise the parametrisation above proves nothing."""
        plain = solve_2d(pin_lattice, "inproc")[1]
        fast = solve_2d(pin_lattice, "inproc", cmfd=True)[1]
        assert fast.cmfd_stats and not plain.cmfd_stats
        assert fast.keff != plain.keff


class TestOneLoop:
    """The identities the shared power iteration (``repro.solver.power``)
    rests on: a single-domain solve is the D = 1 case of a decomposed
    solve, a single-state solve the S = 1 case of a batch — bitwise."""

    @staticmethod
    def assert_same_solve(single, other):
        assert float(other.keff).hex() == float(single.keff).hex()
        assert other.num_iterations == single.num_iterations
        np.testing.assert_array_equal(other.scalar_flux, single.scalar_flux)

    @pytest.mark.parametrize("cmfd", [False, True], ids=["plain", "cmfd"])
    @pytest.mark.parametrize("dims", ["2d", "3d-exp"])
    def test_single_domain_is_one_domain_decomposed(
        self, dims, cmfd, pin_lattice, two_group_fissile, two_group_absorber
    ):
        from repro.solver import MOCSolver

        if dims == "2d":
            tracking = dict(num_azim=4, azim_spacing=0.5, num_polar=2, max_iterations=12)
            single = MOCSolver.for_2d(pin_lattice, cmfd=cmfd, **tracking).solve()
            decomposed = DecomposedSolver(
                pin_lattice, 1, 1, engine="inproc", cmfd=cmfd, **tracking
            ).solve()
        else:
            g3 = extruded(
                two_group_fissile, layers=4, height=8.0,
                bc_top=BoundaryCondition.VACUUM,
                layer_material=reflector_layer_map(two_group_absorber, {2, 3}),
            )
            tracking = dict(
                num_azim=4, azim_spacing=0.7, polar_spacing=0.7, num_polar=2,
                max_iterations=8,
            )
            single = MOCSolver.for_3d(g3, storage="EXP", cmfd=cmfd, **tracking).solve()
            decomposed = ZDecomposedSolver(
                g3, num_domains=1, engine="inproc", cmfd=cmfd, **tracking
            ).solve()
        assert bool(decomposed.cmfd_stats) == cmfd
        self.assert_same_solve(single, decomposed)

    def test_single_state_is_a_batch_of_one(self, pin_lattice):
        from repro.scenario import BatchedKeffSolver, BatchedSweep2D
        from repro.solver import MOCSolver

        limits = dict(keff_tolerance=1e-14, source_tolerance=1e-14, max_iterations=12)
        solver = MOCSolver.for_2d(
            pin_lattice, num_azim=4, azim_spacing=0.5, num_polar=2,
            backend="numpy", **limits,
        )
        single = solver.solve()
        sweeper = BatchedSweep2D(solver.trackgen, [solver.terms])
        (batched,) = BatchedKeffSolver(sweeper, solver.volumes, **limits).solve()
        self.assert_same_solve(single, batched)
