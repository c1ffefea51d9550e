"""Keep the laydown one table per dimension (``TrackTable2D`` / ``TrackTable3D`` columns).

``Track2D`` / ``TrackLink`` / ``Chain`` and ``Track3D`` objects are lazily
built views (``TrackTable2D.objects``, ``stack3d.track_objects``). A second
place constructing them, or anything under ``src/repro`` reading the views
``.tracks`` / ``.chains`` / ``.tracks3d`` beyond the few named readers, is a
second representation growing back.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel import DecomposedSolver, ZDecomposedSolver
from repro.scenario import run_scenario_batch
from repro.solver import MOCSolver
from repro.tracks import TrackingCache
from repro.tracks.chains import Chain
from repro.tracks.track import Track2D, Track3D, TrackLink
from tests.scenario.conftest import batch_config, one_cpu_affinity

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The (class, view) pairs of the two laydowns: the object classes only a
#: view builder may construct, and the attributes the views are read through.
CLASSES = {"Track2D": Track2D, "TrackLink": TrackLink, "Chain": Chain, "Track3D": Track3D}
VIEWS = ("tracks", "chains", "tracks3d")

#: Every construction and every view read ``src/repro`` may contain: one
#: construction site per class (both view builders get their ``TrackLink`` s
#: from ``link_objects``), the generator's view accessors, the ``reference``
#: tracer (``trace_track`` takes a ``Track2D``) and the reference sweep.
ALLOWED = {
    ("tracks/table2d.py", "objects", "constructs Track2D"),
    ("tracks/table2d.py", "objects", "constructs Chain"),
    ("tracks/stack3d.py", "track_objects", "constructs Track3D"),
    ("tracks/track.py", "link_objects", "constructs TrackLink"),
    ("tracks/generator.py", "tracks", "reads .tracks"),
    ("tracks/generator.py", "chains", "reads .chains"),
    ("tracks/raytrace2d.py", "trace_all_reference", "reads .tracks"),
    ("baselines/reference_sweep.py", "_sweep", "reads .tracks"),
}


def _offences(tree: ast.AST):
    """``(function, line, what)`` per construction of a guarded class
    (called, or handed to ``map``) and per read of a view attribute,
    attributed to the innermost enclosing function."""

    def visit(node: ast.AST, function: str):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call):
            for n in [node.func, *node.args]:
                if isinstance(n, ast.Name) and n.id in CLASSES:
                    yield function, node.lineno, f"constructs {n.id}"
        elif isinstance(node, ast.Attribute) and node.attr in VIEWS:
            yield function, node.lineno, f"reads .{node.attr}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def test_one_construction_site_and_no_loops_over_the_view():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(SRC).as_posix()
        found |= {(rel, name, what) for name, _, what in _offences(tree)}
    assert found == ALLOWED
    assert "est_segments" not in {f.name for f in dataclasses.fields(Track3D)}


def test_guard_sees_what_it_guards():
    tree = ast.parse(
        "def f(g):\n    for t in g.tracks3d:\n        pass\n"
        "    return [Track3D(*r) for r in g.rows], list(map(Track3D, g.rows))\n"
        "x = [t.uid for t in tg.tracks3d[:5]]\n"
        "def h(tg):\n    links = [TrackLink(u, f) for u, f in tg.rows]\n"
        "    return list(map(Track2D, tg.rows)), Chain(0, [], False, [], 0.0), len(tg.chains)\n"
        "n = len(tg.tracks)\n"
    )
    assert sorted((name, what) for name, _, what in _offences(tree)) == [
        ("<module>", "reads .tracks"),
        ("<module>", "reads .tracks3d"),
        ("f", "constructs Track3D"),
        ("f", "constructs Track3D"),
        ("f", "reads .tracks3d"),
        ("h", "constructs Chain"),
        ("h", "constructs Track2D"),
        ("h", "constructs TrackLink"),
        ("h", "reads .chains"),
    ]


@pytest.fixture()
def constructions(monkeypatch):
    """Names of the guarded classes, one entry per object built."""
    calls = []

    def spy_on(name, cls):
        init = cls.__init__

        def spy(self, *args, **kwargs):
            calls.append(name)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)

    for name, cls in CLASSES.items():
        spy_on(name, cls)
    return calls


def test_radial_solve_builds_no_objects(pin_cell_geometry, constructions, tmp_path):
    hits = []
    for _ in ("cold", "warm"):
        solver = MOCSolver.for_2d(
            pin_cell_geometry, num_azim=4, azim_spacing=0.3, num_polar=2,
            max_iterations=3, cache=TrackingCache(tmp_path),
        )
        solver.solve()
        hits.append(solver.trackgen.timings.cache_hit)
    assert hits == [False, True]
    assert constructions == []
    # The spy does see the view, and the view is built once.
    tracks, chains = solver.trackgen.tracks, solver.trackgen.chains
    assert sorted(set(constructions)) == ["Chain", "Track2D", "TrackLink"]
    assert constructions.count("Track2D") == len(tracks) == solver.trackgen.num_tracks
    assert constructions.count("Chain") == len(chains) > 0
    assert solver.trackgen.tracks is tracks


def test_decomposed_solve_builds_no_objects(two_group_fissile, constructions, tmp_path):
    u = make_homogeneous_universe(two_group_fissile)
    grid = Geometry(Lattice([[u, u], [u, u]], 1.5, 1.5))
    for _ in ("cold", "warm"):
        solver = DecomposedSolver(
            grid, 2, 2, num_azim=4, azim_spacing=0.5, num_polar=2, max_iterations=3,
            engine="inproc", cache=TrackingCache(tmp_path),
        )
        solver.solve()
    assert [t.cache_hit for t in solver.tracking_timings] == [True] * 4
    assert solver.exchange.num_routes > 0 and constructions == []


def test_scenario_batch_builds_no_objects(constructions):
    with one_cpu_affinity():  # every state in this process, where the spy is
        batch = run_scenario_batch(batch_config())
    assert len(batch.states) == 4 and constructions == []


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
    # The spy does see the view (a Track3D carries its TrackLinks).
    assert len(solver.trackgen.tracks3d) == constructions.count("Track3D") > 0
    assert set(constructions) == {"Track3D", "TrackLink"}


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
        # Cold and warm, every slab holds the one radial laydown.
        for domain in solver.domains:
            assert domain.trackgen.track_table_2d() is solver.radial.track_table_2d()
            assert domain.trackgen.segments is solver.radial.segments
            assert domain.trackgen.fsr_volumes is solver.radial.fsr_volumes
    assert hits == [[False] * 3, [True] * 3]
    assert solver.routes and constructions == []
    assert solver.domains[0].trackgen.tracks is solver.radial.tracks
