"""Integration: the storage strategies are numerically identical.

EXP, OTF, the Manager and CCM differ only in *when* 3D segments are
generated, never in their values — so eigenvalues and fluxes must match
to the bit, not merely to tolerance, in a single domain and in every
z-slab of a decomposition on every engine.
"""

import hashlib

import numpy as np
import pytest

from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel import ZDecomposedSolver
from repro.runtime.antmoc import GEOMETRY_BUILDERS
from repro.solver import MOCSolver
from tests.engine.test_async_engine import needs_fork


@pytest.fixture(scope="module")
def hetero_geometry_3d():
    from repro.materials import c5g7_library

    lib = c5g7_library()
    fuel = make_homogeneous_universe(lib["UO2"])
    water = make_homogeneous_universe(lib["Moderator"])
    radial = Geometry(Lattice([[fuel, water], [water, fuel]], 1.2, 1.2))
    return ExtrudedGeometry(
        radial, AxialMesh.uniform(0.0, 1.5, 2),
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=BoundaryCondition.REFLECTIVE,
    )


def solve(geometry3d, storage, budget=None):
    solver = MOCSolver.for_3d(
        geometry3d, num_azim=4, azim_spacing=0.6, polar_spacing=0.6, num_polar=2,
        storage=storage, resident_memory_bytes=budget,
        keff_tolerance=1e-7, source_tolerance=1e-6, max_iterations=60,
    )
    return solver, solver.solve()


class TestStorageEquivalence:
    def test_all_strategies_bitwise_consistent(self, hetero_geometry_3d):
        _, exp = solve(hetero_geometry_3d, "EXP")
        _, otf = solve(hetero_geometry_3d, "OTF")
        _, mgr = solve(hetero_geometry_3d, "MANAGER", budget=800)
        assert exp.keff.hex() == otf.keff.hex() == mgr.keff.hex()
        assert np.array_equal(exp.scalar_flux, otf.scalar_flux)
        assert np.array_equal(exp.scalar_flux, mgr.scalar_flux)

    def test_manager_actually_split(self, hetero_geometry_3d):
        solver, _ = solve(hetero_geometry_3d, "MANAGER", budget=800)
        strategy = solver.storage_strategy
        assert strategy.num_resident > 0
        assert strategy.num_temporary > 0
        assert strategy.regenerated_tracks_total > 0

    def test_manager_counts_sweeps_only(self, hetero_geometry_3d):
        """The volume reference pass at build serves no sweep: after a
        solve the counter is exactly sweeps x temporaries."""
        solver, result = solve(hetero_geometry_3d, "MANAGER", budget=800)
        strategy = solver.storage_strategy
        assert strategy.sweeps_served == result.num_iterations
        assert strategy.regenerated_tracks_total == (
            result.num_iterations * strategy.num_temporary
        )
        strategy.reference_segments()
        assert strategy.regenerated_tracks_total == (
            result.num_iterations * strategy.num_temporary
        )

    def test_otf_regenerated_everything(self, hetero_geometry_3d):
        solver, result = solve(hetero_geometry_3d, "OTF")
        strategy = solver.storage_strategy
        # one regeneration per track per sweep; the volume reference pass
        # serves no sweep and is not counted
        assert strategy.regenerated_tracks_total == (
            result.num_iterations * solver.trackgen.num_tracks_3d
        )


ENGINES = ["inproc", pytest.param("mp", marks=needs_fork), pytest.param("mp-async", marks=needs_fork)]


def make_z2(storage, engine="inproc", cmfd=False, budget=None):
    return ZDecomposedSolver(
        GEOMETRY_BUILDERS["c5g7-3d-mini"](), num_domains=2, num_azim=4, azim_spacing=0.6,
        polar_spacing=1.0, num_polar=2, storage=storage, resident_memory_bytes=budget,
        keff_tolerance=1e-14, source_tolerance=1e-14, max_iterations=5,
        engine=engine, workers=2, cmfd=cmfd,
    )


def answer(solver, result):
    flux = hashlib.sha256(np.ascontiguousarray(result.scalar_flux).tobytes()).hexdigest()
    return result.keff.hex(), result.num_iterations, flux, solver.workload[:6]


class TestDecomposedStorageEquivalence:
    """``nz = 2``: every storage strategy on every engine, CMFD off and
    on, reproduces the EXP / inproc answer; the resident budget is per
    slab."""

    @pytest.fixture(scope="class")
    def oracle(self):
        """``(answer, MANAGER budget)`` per CMFD setting; the budget is
        half of what the smaller slab stores under EXP."""
        rows = {}
        for cmfd in (False, True):
            solver = make_z2("EXP", cmfd=cmfd)
            slab_bytes = [d.strategy.resident_memory_bytes() for d in solver.domains]
            rows[cmfd] = answer(solver, solver.solve()), min(slab_bytes) // 2
        return rows

    @pytest.mark.parametrize("cmfd", [False, True], ids=["plain", "cmfd"])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("storage", ["EXP", "OTF", "MANAGER", "CCM"])
    def test_matches_exp_inproc(self, oracle, storage, engine, cmfd):
        expected, budget = oracle[cmfd]
        solver = make_z2(storage, engine, cmfd, budget)
        assert answer(solver, solver.solve()) == expected
        resident = [d.strategy.num_resident for d in solver.domains]
        assert solver.workload.tracks_3d_resident == sum(resident)
        for dom in solver.domains:
            strategy = dom.strategy
            if storage == "MANAGER":
                assert strategy.num_resident > 0 and strategy.num_temporary > 0
                assert strategy.resident_memory_bytes() <= budget
            elif storage == "OTF":
                assert strategy.num_resident == strategy.resident_memory_bytes() == 0
            else:
                assert strategy.num_resident == dom.tracks_3d

    def test_otf_slabs_regenerate_every_sweep(self, monkeypatch):
        import repro.tracks.generator as generator

        calls = []
        batch = generator.trace_3d_batch
        monkeypatch.setattr(
            generator, "trace_3d_batch", lambda *a, **k: calls.append(a) or batch(*a, **k)
        )
        solver = make_z2("OTF")
        built = len(calls)
        result = solver.solve()
        assert len(calls) - built == solver.num_domains * result.num_iterations
