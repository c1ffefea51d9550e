"""Keep the 3D laydown one table (``TrackTable3D`` columns).

``Track3D`` objects are a lazily built view (``stack3d.track_objects``).
A second place constructing them, or a loop over ``tracks3d`` anywhere
under ``src/repro``, is a second representation growing back.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.parallel import ZDecomposedSolver
from repro.solver import MOCSolver
from repro.tracks import TrackingCache
from repro.tracks.track import Track3D

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _offences(tree: ast.AST):
    """``(function, line, what)`` per ``Track3D`` construction (called, or
    handed to ``map``) and per loop / comprehension over ``tracks3d``,
    attributed to the innermost enclosing function."""

    def visit(node: ast.AST, function: str):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call) and any(
            isinstance(n, ast.Name) and n.id == "Track3D" for n in [node.func, *node.args]
        ):
            yield function, node.lineno, "constructs Track3D"
        elif isinstance(node, (ast.For, ast.comprehension)) and "tracks3d" in ast.unparse(
            node.iter
        ):
            yield function, node.iter.lineno, "iterates tracks3d"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def test_one_construction_site_and_no_loops_over_the_view():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(SRC).as_posix()
        found |= {(rel, name, what) for name, _, what in _offences(tree)}
    assert found == {("tracks/stack3d.py", "track_objects", "constructs Track3D")}
    assert "est_segments" not in {f.name for f in dataclasses.fields(Track3D)}


def test_guard_sees_what_it_guards():
    tree = ast.parse(
        "def f(g):\n    for t in g.tracks3d:\n        pass\n"
        "    return [Track3D(*r) for r in g.rows], list(map(Track3D, g.rows))\n"
        "x = [t.uid for t in tg.tracks3d[:5]]\n"
    )
    assert sorted((name, what) for name, _, what in _offences(tree)) == [
        ("<module>", "iterates tracks3d"),
        ("f", "constructs Track3D"),
        ("f", "constructs Track3D"),
        ("f", "iterates tracks3d"),
    ]


@pytest.fixture()
def constructions(monkeypatch):
    calls = []
    init = Track3D.__init__

    def spy(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Track3D, "__init__", spy)
    return calls


@pytest.mark.parametrize("storage", ["EXP", "OTF", "MANAGER"])
def test_single_domain_solve_builds_no_objects(
    small_geometry_3d, constructions, tmp_path, storage
):
    hits = []
    for _ in ("cold", "warm"):
        solver = MOCSolver.for_3d(
            small_geometry_3d, num_azim=4, azim_spacing=0.8, polar_spacing=0.8,
            num_polar=2, storage=storage, resident_memory_bytes=600, max_iterations=3,
            cache=TrackingCache(tmp_path),
        )
        solver.solve()
        hits.append(solver.trackgen.timings.cache_hit)
    assert hits == [False, True]
    assert constructions == []
    assert len(solver.trackgen.tracks3d) == len(constructions) > 0  # the spy does see the view


def test_z_decomposed_solve_builds_no_objects(small_geometry_3d, constructions, tmp_path):
    hits = []
    for _ in ("cold", "warm"):
        solver = ZDecomposedSolver(
            small_geometry_3d, num_domains=2, num_azim=4, azim_spacing=0.8,
            polar_spacing=0.8, num_polar=2, max_iterations=3, engine="inproc",
            cache=TrackingCache(tmp_path),
        )
        solver.solve()
        hits.append([t.cache_hit for t in solver.tracking_timings])
    assert hits == [[False] * 3, [True] * 3]
    assert solver.routes and constructions == []
