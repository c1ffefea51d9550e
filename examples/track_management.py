#!/usr/bin/env python
"""Track-storage strategies on a real 3D solve (paper Sec. 4.1 / Fig. 9).

Runs the same small 3D problem under EXP (store everything), OTF
(regenerate everything per sweep) and the Manager (resident/temporary
split under a memory budget), comparing wall time, resident memory, and —
crucially — verifying that all three produce the identical eigenvalue.

Then replays the comparison at the paper's scale on the simulated MI60
cluster, where EXP runs out of the 16 GB device memory.

Run:  python examples/track_management.py
"""

import time

from repro import MOCSolver, c5g7_library
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel.timeline import ClusterTransportSimulator


def build_problem() -> ExtrudedGeometry:
    library = c5g7_library()
    fuel = make_homogeneous_universe(library["UO2"])
    water = make_homogeneous_universe(library["Moderator"])
    radial = Geometry(Lattice([[fuel, water], [water, fuel]], 1.26, 1.26))
    return ExtrudedGeometry(
        radial,
        AxialMesh.uniform(0.0, 2.52, 3),
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=BoundaryCondition.REFLECTIVE,
    )


def main() -> None:
    geometry3d = build_problem()
    print("=== real solver (small problem, 15 iterations each) ===")
    print(f"{'strategy':<10}{'time s':>8}{'resident B':>12}{'regen tracks':>14}{'k-eff':>12}")
    results = {}
    budget = None
    for storage in ("EXP", "MANAGER", "OTF"):
        if storage == "MANAGER" and budget is None:
            # Budget = half of what EXP stores, as in the paper's fixed
            # threshold vs growing problems.
            probe = MOCSolver.for_3d(geometry3d, num_azim=4, azim_spacing=0.4,
                                     polar_spacing=0.4, num_polar=2, storage="EXP",
                                     max_iterations=1)
            budget = probe.storage_strategy.resident_memory_bytes() // 2
        solver = MOCSolver.for_3d(
            geometry3d, num_azim=4, azim_spacing=0.4, polar_spacing=0.4,
            num_polar=2, storage=storage, resident_memory_bytes=budget,
            max_iterations=15, keff_tolerance=1e-12, source_tolerance=1e-12,
        )
        start = time.perf_counter()
        result = solver.solve()
        elapsed = time.perf_counter() - start
        strategy = solver.storage_strategy
        results[storage] = result.keff
        print(
            f"{storage:<10}{elapsed:>8.2f}{strategy.resident_memory_bytes():>12}"
            f"{strategy.regenerated_tracks_total:>14}{result.keff:>12.7f}"
        )
    spread = max(results.values()) - min(results.values())
    print(f"\nk-eff spread across strategies: {spread:.2e} (identical physics)")
    assert spread < 1e-10

    print("\n=== simulated MI60 cluster (paper scale, 1000 GPUs) ===")
    simulator = ClusterTransportSimulator()
    print(f"{'tracks':<10}{'EXP':>12}{'OTF':>12}{'MANAGER':>12}{'resident':>10}")
    for total in (10e9, 50e9, 100e9, 175e9):
        row = {s: simulator.simulate(total, 1000, storage=s) for s in ("EXP", "OTF", "MANAGER")}
        exp = "OOM" if row["EXP"].out_of_memory else f"{row['EXP'].iteration_seconds:.3f}s"
        print(
            f"{total / 1e9:<10.0f}{exp:>12}"
            f"{row['OTF'].iteration_seconds:>11.3f}s"
            f"{row['MANAGER'].iteration_seconds:>11.3f}s"
            f"{row['MANAGER'].resident_fraction:>10.2f}"
        )
    print("\nEXP is fastest while it fits; the Manager tracks it, then degrades")
    print("gracefully toward OTF as the resident budget covers less of the problem.")


if __name__ == "__main__":
    main()
