"""One geometry query path: the compiled flat view answers every query.

A :class:`~repro.geometry.Geometry` compiles its flat view at
construction; a tree the compiler cannot lower is refused there, never
served by a slower second path. The object-tree walks stay only as the
oracle: the flat view must equal them bitwise on every shipped geometry,
and nothing in ``src/repro`` but the geometry itself and the oracle
tracer may call them.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    Cell, Geometry, Halfspace, Lattice, Region, Surface, Universe, ZCylinder,
)
from repro.geometry.decomposition import decompose_lattice_geometry
from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.surfaces import NO_HIT
from repro.io.config import load_config
from repro.runtime.antmoc import GEOMETRY_BUILDERS, build_geometry

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


class _Circle(Surface):
    """A surface type the flat compiler has never heard of."""

    __slots__ = ("r",)

    def __init__(self, r: float) -> None:
        super().__init__()
        self.r = r

    def evaluate(self, x: float, y: float) -> float:
        return x * x + y * y - self.r * self.r

    def distance(self, x: float, y: float, ux: float, uy: float) -> float:
        return NO_HIT


class _Disc(Region):
    """A region type with a surface but no DNF lowering."""

    def __init__(self, surface: Surface) -> None:
        self.surface = surface

    def contains(self, x: float, y: float) -> bool:
        return self.surface.evaluate(x, y) <= 0.0

    def surfaces(self):
        yield self.surface


@pytest.mark.parametrize(
    "surface, region, construct",
    [
        (_Circle, lambda s: Halfspace(s, -1), "surface type _Circle"),
        (lambda r: ZCylinder(0.0, 0.0, r), _Disc, "region type _Disc"),
    ],
    ids=["surface", "region"],
)
def test_an_unlowerable_tree_is_refused_at_construction(moderator, surface, region, construct):
    circle = surface(0.4)
    universe = Universe(
        [Cell(region(circle), material=moderator), Cell(Halfspace(circle, +1), material=moderator)]
    )
    with pytest.raises(GeometryError, match=f"cannot lower {construct}"):
        Geometry(universe, bounds=(-1.0, -1.0, 1.0, 1.0))
    with pytest.raises(GeometryError, match=f"cannot lower {construct}"):
        Geometry(Lattice([[universe]], 2.0, 2.0))


# ------------------------------------------------------- flat == tree walk


def _radial(geometry):
    return geometry.radial if isinstance(geometry, ExtrudedGeometry) else geometry


def _shipped_geometries():
    """Every registered geometry (the radial part of a 3D one) and the
    subdomains of the decomposed profile."""
    for name, build in sorted(GEOMETRY_BUILDERS.items()):
        yield name, _radial(build())
    cfg = load_config(ROOT / "configs" / "c5g7-decomposed.yaml")
    subs = decompose_lattice_geometry(
        build_geometry(cfg), cfg.decomposition.nx, cfg.decomposition.ny
    )
    for sub in subs:
        yield f"c5g7-decomposed/{sub.name}", sub


SHIPPED = dict(_shipped_geometries())


def _samples(geometry, seed, n=256):
    """Seeded interior points, plus points on the root lattice's interior
    walls (where a track's probe starts its lookups), and ray directions."""
    rng = np.random.default_rng(seed)
    margin = 1e-6
    x = rng.uniform(geometry.xmin + margin, geometry.xmax - margin, n)
    y = rng.uniform(geometry.ymin + margin, geometry.ymax - margin, n)
    root = geometry.root
    if isinstance(root, Lattice) and root.nx > 1:
        walls = root.x0 + root.pitch_x * rng.integers(1, root.nx, n // 4)
        along = rng.uniform(geometry.ymin + margin, geometry.ymax - margin, walls.size)
        x, y = np.concatenate([x, walls]), np.concatenate([y, along])
    phi = rng.uniform(0.0, 2.0 * math.pi, x.size)
    return x, y, np.cos(phi), np.sin(phi)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_flat_view_equals_the_tree_walk_bitwise(name):
    geometry = SHIPPED[name]
    x, y, ux, uy = _samples(geometry, seed=sum(map(ord, name)))
    tree_fsr = [geometry._find_fsr_tree(float(a), float(b)) for a, b in zip(x, y)]
    np.testing.assert_array_equal(geometry.flat.find_fsr_batch(x, y), tree_fsr)
    tree_dist = [
        geometry._distance_to_boundary_tree(float(a), float(b), float(c), float(d))
        for a, b, c, d in zip(x, y, ux, uy)
    ]
    flat_dist = geometry.flat.distance_to_boundary_batch(x, y, ux, uy)
    assert flat_dist.tobytes() == np.array(tree_dist).tobytes()


def test_the_sample_covers_every_shipped_geometry():
    assert {"c5g7", "c5g7-mini", "c5g7-small", "c5g7-3d-mini"} <= set(SHIPPED)
    assert sum(name.startswith("c5g7-decomposed/") for name in SHIPPED) == 9


# --------------------------------------------- the tree walk is the oracle

ORACLES = ("_find_fsr_tree", "_distance_to_boundary_tree")

#: Where ``src/repro`` may name the tree walks: the geometry that defines
#: them, and the oracle tracer.
ALLOWED = {("geometry/geometry.py", None), ("tracks/raytrace2d.py", "trace_track")}


def _references(tree: ast.AST):
    """``(function, line)`` per mention of a tree walk (definition,
    attribute or bare name), attributed to the innermost enclosing function."""

    def visit(node: ast.AST, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in ORACLES:
                yield function, node.lineno
            function = node.name
        elif isinstance(node, ast.Attribute) and node.attr in ORACLES:
            yield function, node.lineno
        elif isinstance(node, ast.Name) and node.id in ORACLES:
            yield function, node.lineno
        elif isinstance(node, ast.Constant) and node.value in ORACLES:
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def _offences():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for function, line in _references(ast.parse(path.read_text(encoding="utf-8"))):
            if (rel, None) not in ALLOWED and (rel, function) not in ALLOWED:
                yield f"{rel}:{line} ({function})"


def test_only_the_oracle_tracer_calls_the_tree_walk():
    assert list(_offences()) == []
    assert not hasattr(Geometry, "find_fsr_batch")
    assert not hasattr(Geometry, "distance_to_boundary_batch")


def test_guard_sees_what_it_guards():
    tree = ast.parse(
        "def f(g):\n    return g._find_fsr_tree(0.0, 0.0)\n"
        "find = getattr(g, '_distance_to_boundary_tree')\n"
        "class G:\n    def _find_fsr_tree(self):\n        pass\n"
    )
    assert sorted(_references(tree)) == [("<module>", 3), ("<module>", 5), ("f", 2)]
