"""Constructive-solid-geometry substrate for the MOC solver.

The radial (x-y) geometry is a CSG hierarchy of surfaces, cells, universes
and rectangular lattices, mirroring the modelling style of OpenMOC and of
ANT-MOC's geometry-construction stage. Axially extruded 3D geometries wrap
a radial geometry with a z-mesh (the structure exploited by the paper's
on-the-fly axial ray tracing).
"""

from repro.geometry.surfaces import Surface, Plane2D, XPlane, YPlane, ZCylinder
from repro.geometry.region import Region, Halfspace, Intersection, Union, Complement
from repro.geometry.cell import Cell
from repro.geometry.universe import Universe, make_pin_cell_universe
from repro.geometry.lattice import Lattice
from repro.geometry.geometry import Geometry, BoundaryCondition
from repro.geometry.flat import FlatGeometry, compile_flat
from repro.geometry.extruded import ExtrudedGeometry, AxialMesh
from repro.geometry.decomposition import CuboidDecomposition, Subdomain
from repro.geometry.fusion import FusionGeometry
from repro.geometry.c5g7 import (
    build_c5g7_geometry,
    build_c5g7_3d,
    build_assembly_universe,
    C5G7Spec,
)

__all__ = [
    "Surface",
    "Plane2D",
    "XPlane",
    "YPlane",
    "ZCylinder",
    "Region",
    "Halfspace",
    "Intersection",
    "Union",
    "Complement",
    "Cell",
    "Universe",
    "make_pin_cell_universe",
    "Lattice",
    "Geometry",
    "BoundaryCondition",
    "FlatGeometry",
    "compile_flat",
    "ExtrudedGeometry",
    "AxialMesh",
    "CuboidDecomposition",
    "Subdomain",
    "FusionGeometry",
    "build_c5g7_geometry",
    "build_c5g7_3d",
    "build_assembly_universe",
    "C5G7Spec",
]
