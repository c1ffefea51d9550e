"""ANT-MOC reproduction: scalable 3D MOC neutron transport in Python.

A from-scratch reproduction of *ANT-MOC: Scalable Neutral Particle
Transport Using 3D Method of Characteristics on Multi-GPU Systems*
(SC '23): a real 2D/3D Method-of-Characteristics transport solver (CSG
geometry, C5G7 benchmark, cyclic tracking, on-the-fly 3D segmentation,
k-eigenvalue power iteration) coupled to a deterministic simulation of the
paper's multi-GPU testbed (performance model, track management, three-
level load mapping, cluster timing). See DESIGN.md for the substitution
map and EXPERIMENTS.md for the per-figure reproduction results.

Quickstart::

    from repro import MOCSolver, c5g7_library
    from repro.geometry import build_c5g7_geometry, C5G7Spec

    geometry = build_c5g7_geometry(
        c5g7_library(), C5G7Spec(pins_per_assembly=3, reflector_refinement=3)
    )
    result = MOCSolver.for_2d(geometry, num_azim=8, azim_spacing=0.3).solve()
    print(result.keff)
"""

from repro.errors import (
    ReproError,
    ConfigError,
    GeometryError,
    TrackingError,
    SolverError,
    DecompositionError,
    HardwareModelError,
    CommunicationError,
)
from repro.materials import Material, MaterialLibrary, c5g7_library
from repro.geometry import (
    Geometry,
    BoundaryCondition,
    Lattice,
    Universe,
    Cell,
    ExtrudedGeometry,
    AxialMesh,
    build_c5g7_geometry,
    build_c5g7_3d,
    C5G7Spec,
)
from repro.tracks import TrackGenerator, TrackGenerator3D
from repro.solver import MOCSolver, SolveResult
from repro.runtime import AntMocApplication
from repro.io import RunConfig, load_config

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigError",
    "GeometryError",
    "TrackingError",
    "SolverError",
    "DecompositionError",
    "HardwareModelError",
    "CommunicationError",
    "Material",
    "MaterialLibrary",
    "c5g7_library",
    "Geometry",
    "BoundaryCondition",
    "Lattice",
    "Universe",
    "Cell",
    "ExtrudedGeometry",
    "AxialMesh",
    "build_c5g7_geometry",
    "build_c5g7_3d",
    "C5G7Spec",
    "TrackGenerator",
    "TrackGenerator3D",
    "MOCSolver",
    "SolveResult",
    "AntMocApplication",
    "RunConfig",
    "load_config",
    "__version__",
]
