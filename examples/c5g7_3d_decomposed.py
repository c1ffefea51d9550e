#!/usr/bin/env python
"""Direct 3D transport with axial domain decomposition — the paper's mode.

Runs the mini C5G7 3D extension (fuel zone + axial water reflector,
reflective bottom / vacuum top) twice:

* a single-domain direct 3D MOC solve, and
* the same problem split into 2 axial slabs exchanging boundary angular
  flux through the simulated communicator every iteration,

then prints the axial power profile and the k-eff agreement — the 3D
analogue of the paper's spatial-decomposition consistency claim.

Run:  python examples/c5g7_3d_decomposed.py
"""

import numpy as np

from repro import MOCSolver, c5g7_library
from repro.geometry import C5G7Spec, build_c5g7_3d
from repro.parallel.driver3d import ZDecomposedSolver

TRACKING = dict(num_azim=4, azim_spacing=0.5, polar_spacing=0.8, num_polar=2)
TOLS = dict(keff_tolerance=1e-5, source_tolerance=1e-4, max_iterations=250)


def main() -> None:
    library = c5g7_library()
    spec = C5G7Spec(
        pins_per_assembly=3, reflector_refinement=2, fuel_layers=2, reflector_layers=2
    )
    geometry3d = build_c5g7_3d(library, spec)
    print(
        f"geometry: {geometry3d.radial.num_fsrs} radial FSRs x "
        f"{geometry3d.num_layers} layers = {geometry3d.num_fsrs} 3D FSRs"
    )

    print("\n=== single-domain direct 3D MOC ===")
    single_solver = MOCSolver.for_3d(geometry3d, storage="EXP", **TRACKING, **TOLS)
    single = single_solver.solve()
    print(f"k-eff {single.keff:.6f}  converged {single.converged} "
          f"({single.num_iterations} iterations, {single.solve_seconds:.1f} s)")

    print("\n=== 2 axial domains over simulated MPI ===")
    decomposed_solver = ZDecomposedSolver(geometry3d, num_domains=2, **TRACKING, **TOLS)
    decomposed = decomposed_solver.solve()
    print(f"k-eff {decomposed.keff:.6f}  converged {decomposed.converged} "
          f"({decomposed.num_iterations} iterations, {decomposed.solve_seconds:.1f} s)")
    print(f"interface routes: {len(decomposed_solver.routes)}, "
          f"comm: {decomposed.comm_bytes:,} bytes / {decomposed.comm_messages:,} messages")

    print(f"\nk-eff difference: {abs(single.keff - decomposed.keff):.2e} "
          "(identical slab laydown -> near-exact agreement)")

    # Axial power profile from the single-domain solution.
    nz = geometry3d.num_layers
    fission = np.einsum(
        "rg,rg->r",
        single_solver.terms.sigma_f,
        single.scalar_flux,
    ) * single_solver.volumes
    per_layer = np.array([fission[k::nz].sum() for k in range(nz)])
    if per_layer.sum() > 0:
        per_layer = per_layer / per_layer.sum()
    print("\naxial power profile (bottom -> top):")
    for k, frac in enumerate(per_layer):
        zone = "fuel" if k < spec.fuel_layers else "reflector"
        bar = "#" * int(round(60 * frac))
        print(f"  layer {k} ({zone:<9}): {frac:6.1%} {bar}")
    print("\nthe axial reflector carries no fission power; the vacuum top end")
    print("depresses the upper fuel layer relative to the reflective bottom.")


if __name__ == "__main__":
    main()
