"""Fig. 9 — EXP / OTF / Manager time and memory across track scales.

Three reproductions, per DESIGN.md:

* **real measurements** — the actual Python solver runs ten transport
  iterations under each storage strategy at growing (laptop-scale) track
  counts; wall time and resident segment bytes are measured directly.
  Expected shape: EXP fastest / most memory, OTF slowest / least memory,
  Manager between, approaching EXP as its budget covers the problem;
* **the decomposed row** — the paper ran Fig. 9 on decomposed domains,
  each rank managing its own tracks inside its own budget: the middle
  scale again, cut into three z-slabs that each own a storage strategy
  (the Manager's budget is per slab, as the paper's is per device);
* **paper-scale simulation** — the cluster timing model replays the same
  comparison at the paper's densities, where EXP hits the 16 GB device
  wall (out-of-memory) while OTF/Manager continue.
"""

import time

import numpy as np
import pytest

from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import c5g7_library
from repro.parallel import ClusterTransportSimulator, ZDecomposedSolver
from repro.solver import MOCSolver
from repro.trackmgmt.strategy import BYTES_PER_SEGMENT

#: Real-measurement sweep: azimuthal/polar spacing per scale step.
REAL_SCALES = [0.9, 0.7, 0.5, 0.4, 0.3]
MIDDLE_SCALE = REAL_SCALES[len(REAL_SCALES) // 2]
ITERATIONS = 10


@pytest.fixture(scope="module")
def geometry3d():
    lib = c5g7_library()
    fuel = make_homogeneous_universe(lib["UO2"])
    water = make_homogeneous_universe(lib["Moderator"])
    radial = Geometry(Lattice([[fuel, water], [water, fuel]], 1.26, 1.26))
    return ExtrudedGeometry(
        radial, AxialMesh.uniform(0.0, 2.52, 3),
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=BoundaryCondition.REFLECTIVE,
    )


def run_real(geometry3d, spacing, storage, budget):
    # Fastest of three solves: with regeneration batched, ten iterations at
    # these scales take a few milliseconds, and a single timing is noisier
    # than the OTF-vs-Manager difference the shape check looks for.
    elapsed = float("inf")
    for _ in range(3):
        solver = MOCSolver.for_3d(
            geometry3d, num_azim=4, azim_spacing=spacing, polar_spacing=spacing,
            num_polar=2, storage=storage, resident_memory_bytes=budget,
            max_iterations=ITERATIONS, keff_tolerance=1e-12, source_tolerance=1e-12,
        )
        start = time.perf_counter()
        solver.solve()
        elapsed = min(elapsed, time.perf_counter() - start)
    strategy = solver.storage_strategy
    return elapsed, strategy.resident_memory_bytes(), solver.trackgen.num_tracks_3d


def test_fig9_real_measurements(benchmark, reporter, geometry3d):
    rows = []
    shapes_ok = []
    for spacing in REAL_SCALES:
        # Manager budget: roughly half of the EXP footprint at this scale,
        # mirroring the paper's fixed 6.144 GB against growing problems.
        probe = MOCSolver.for_3d(
            geometry3d, num_azim=4, azim_spacing=spacing, polar_spacing=spacing,
            num_polar=2, storage="EXP", max_iterations=1,
        )
        exp_bytes = probe.storage_strategy.resident_memory_bytes()
        budget = exp_bytes // 2
        t_exp, m_exp, tracks = run_real(geometry3d, spacing, "EXP", None)
        t_otf, m_otf, _ = run_real(geometry3d, spacing, "OTF", None)
        t_mgr, m_mgr, _ = run_real(geometry3d, spacing, "MANAGER", budget)
        rows.append([
            tracks,
            f"{t_exp:.2f}/{t_otf:.2f}/{t_mgr:.2f}",
            f"{m_exp}/{m_otf}/{m_mgr}",
        ])
        shapes_ok.append(t_exp <= t_otf and m_otf <= m_mgr <= m_exp and t_mgr <= t_otf * 1.15)

    # pytest-benchmark target: one Manager iteration at the middle scale.
    solver = MOCSolver.for_3d(
        geometry3d, num_azim=4, azim_spacing=0.5, polar_spacing=0.5,
        num_polar=2, storage="MANAGER", max_iterations=1,
    )
    reduced = np.zeros((solver.terms.num_regions, solver.terms.num_groups))
    benchmark(solver.storage_strategy.sweep, solver.sweeper, reduced)

    reporter.line("Fig. 9 reproduction (real solver, 10 iterations each)")
    reporter.line("time and resident memory as EXP/OTF/Manager")
    reporter.line()
    reporter.table(
        ["3D tracks", "time s (E/O/M)", "resident B (E/O/M)"],
        rows, widths=[12, 22, 26],
    )
    assert all(shapes_ok), "storage-strategy ordering violated at some scale"


def run_decomposed(geometry3d, storage, budget):
    """One z-slab per axial layer; returns the fastest of three solves,
    the resident bytes summed over slabs and the tracks every sweep
    regenerates (``tracks_3d - tracks_3d_resident``, what the run
    report's ``tracks_3d_regenerated`` counts per iteration)."""
    elapsed = float("inf")
    for _ in range(3):
        solver = ZDecomposedSolver(
            geometry3d, num_domains=3, num_azim=4, azim_spacing=MIDDLE_SCALE,
            polar_spacing=MIDDLE_SCALE, num_polar=2, storage=storage,
            resident_memory_bytes=budget, max_iterations=ITERATIONS,
            keff_tolerance=1e-12, source_tolerance=1e-12, engine="inproc",
        )
        start = time.perf_counter()
        solver.solve()
        elapsed = min(elapsed, time.perf_counter() - start)
    resident = [d.strategy.resident_memory_bytes() for d in solver.domains]
    workload = solver.workload
    return elapsed, resident, workload.tracks_3d - workload.tracks_3d_resident


def test_fig9_decomposed_row(reporter, geometry3d):
    t_exp, m_exp, r_exp = run_decomposed(geometry3d, "EXP", None)
    budget = min(m_exp) // 2
    t_otf, m_otf, r_otf = run_decomposed(geometry3d, "OTF", None)
    t_mgr, m_mgr, r_mgr = run_decomposed(geometry3d, "MANAGER", budget)

    reporter.line("Fig. 9 reproduction (real solver, 3 z-slabs, 10 iterations each)")
    reporter.line(f"Manager budget {budget} B per slab; columns as EXP/OTF/Manager")
    reporter.line()
    reporter.table(
        ["time s (E/O/M)", "resident B, all slabs (E/O/M)", "regenerated / sweep (E/O/M)"],
        [[
            f"{t_exp:.3f}/{t_otf:.3f}/{t_mgr:.3f}",
            f"{sum(m_exp)}/{sum(m_otf)}/{sum(m_mgr)}",
            f"{r_exp}/{r_otf}/{r_mgr}",
        ]],
        widths=[22, 32, 30],
    )
    assert all(slab <= budget for slab in m_mgr)
    assert sum(m_otf) <= sum(m_mgr) <= sum(m_exp) and t_exp <= t_otf
    assert r_exp == 0 < r_mgr < r_otf


def test_fig9_paper_scale_simulation(benchmark, reporter):
    simulator = ClusterTransportSimulator()
    gpus = 1000
    scales = [10e9, 25e9, 50e9, 100e9, 175e9]  # total tracks

    def simulate_all():
        table = []
        for total in scales:
            row = {"tracks": total}
            for storage in ("EXP", "OTF", "MANAGER"):
                rep = simulator.simulate(total, gpus, storage=storage)
                row[storage] = rep
            table.append(row)
        return table

    table = benchmark(simulate_all)
    rows = []
    for row in table:
        exp = row["EXP"]
        rows.append([
            f"{row['tracks'] / 1e9:.0f}G",
            "OOM" if exp.out_of_memory else f"{exp.iteration_seconds:.3f}",
            f"{row['OTF'].iteration_seconds:.3f}",
            f"{row['MANAGER'].iteration_seconds:.3f}",
            f"{row['MANAGER'].resident_fraction:.2f}",
        ])
    reporter.line("Fig. 9 reproduction (paper-scale simulation, 1000 GPUs)")
    reporter.line("(per-iteration seconds; EXP hits the 16 GB device wall)")
    reporter.line()
    reporter.table(
        ["tracks", "EXP", "OTF", "MANAGER", "resident frac"],
        rows, widths=[8, 10, 10, 10, 14],
    )
    # Shape: EXP OOMs at the largest scales; Manager always between.
    assert table[-1]["EXP"].out_of_memory
    assert not table[0]["EXP"].out_of_memory
    for row in table:
        assert row["MANAGER"].iteration_seconds <= row["OTF"].iteration_seconds + 1e-12
        if not row["EXP"].out_of_memory:
            assert row["EXP"].iteration_seconds <= row["MANAGER"].iteration_seconds + 1e-12
