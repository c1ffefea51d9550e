"""Keep the route table one ``(N, 6)`` array from the interface join to the halo.

Both decomposed drivers build the table as columns, and the halo packs
group it with array code. A class per route (``Route``, the
``InterfaceExchange`` holder) or a Python loop over the table's rows in
the drivers or the engines is a second representation growing back. The
``inproc`` engine's exchange sends one simulated message per route — it
is the oracle the vectorised engines are held to — and is the one walk
allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The names a route-table class went by.
CLASSES = {"Route", "Route3D", "InterfaceExchange"}
#: The names the route table goes by.
TABLES = {"routes", "route_columns"}
#: Calls and methods that hand an iterable's elements through unchanged.
PASS_THROUGH = {"enumerate", "zip", "list", "tuple", "sorted", "reversed", "iter", "map"}
METHODS = {"tolist", "ravel", "flatten", "copy", "astype"}

#: The one walk over the rows: ``(module, function)``.
ALLOWED = {("engine/inproc.py", "_exchange")}


def _walks(node: ast.AST, tables: set[str]) -> bool:
    """Does iterating ``node`` step through the route table route by route?

    True for the table itself, a row selection of it, one of its columns
    (a name bound by unpacking ``table.T``), and those passed through
    ``enumerate`` / ``zip`` / ``.tolist()`` and the like; not for ``table.T``
    itself (six columns) or anything computed from it (``np.unique`` of a
    column)."""
    if isinstance(node, ast.Name):
        return node.id in tables
    if isinstance(node, ast.Attribute):
        return node.attr in TABLES
    if isinstance(node, (ast.Subscript, ast.Starred)):
        return _walks(node.value, tables)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in PASS_THROUGH:
            return any(_walks(arg, tables) for arg in node.args)
        if isinstance(func, ast.Attribute) and func.attr in METHODS:
            return _walks(func.value, tables)
    return False


def _aliases(function: ast.AST) -> set[str]:
    """The table names of ``function``: its route-table references plus
    the local names bound to rows or columns of the table."""
    tables = set(TABLES)
    for _ in range(2):  # an alias of an alias
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name) and _walks(value, tables):
                tables.add(target.id)
            elif (
                isinstance(target, ast.Tuple)
                and isinstance(value, ast.Attribute)
                and value.attr == "T"
                and _walks(value.value, tables)
            ):
                tables |= {n.id for n in target.elts if isinstance(n, ast.Name)}
    return tables


def _offences(tree: ast.AST):
    """``(function, what)`` per route-table class defined or bound, and per
    loop or comprehension stepping through the table route by route,
    attributed to the innermost enclosing function."""

    def visit(node: ast.AST, function: str, tables: set[str]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, tables = node.name, _aliases(node)
        if isinstance(node, ast.ClassDef) and node.name in CLASSES:
            yield function, f"defines {node.name}"
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in CLASSES:
                    yield function, f"binds {target.id}"
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            if _walks(node.iter, tables):
                yield function, "walks the route table"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function, tables)

    yield from visit(tree, "<module>", _aliases(tree))


def _scan(paths):
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(SRC).as_posix()
        found |= {(rel, name, what) for name, what in _offences(tree)}
    return found


def test_no_route_objects_anywhere():
    found = _scan(sorted(SRC.rglob("*.py")))
    assert {f for f in found if f[2] != "walks the route table"} == set()


def test_only_the_inproc_exchange_walks_the_rows():
    paths = sorted((SRC / "parallel").glob("*.py")) + sorted((SRC / "engine").glob("*.py"))
    walks = {(rel, name) for rel, name, what in _scan(paths) if what == "walks the route table"}
    assert walks == ALLOWED


def test_guard_sees_what_it_guards():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Route:\n    src_domain: int\n"
        "class InterfaceExchange:\n"
        "    def routes_from(self, domain):\n"
        "        return [r for r in self.routes if r.src_domain == domain]\n"
        "Route3D = Route\n"
        "def pack(problem):\n"
        "    for i, r in enumerate(problem.routes):\n        pass\n"
        "    counts = {(r[0], r[3]) for r in problem.route_columns.tolist()}\n"
        "def exchange(problem):\n"
        "    rows = problem.route_columns.tolist()\n"
        "    for src, *_ in rows:\n        pass\n"
        "def edges(routes):\n"
        "    src, _, _, dst, _, _ = routes.T\n"
        "    return [(s, d) for s, d in zip(src.tolist(), dst.tolist())]\n"
        "def fine(routes, domain):\n"
        "    src = routes[:, 0]\n"
        "    for col in routes.T:\n        pass\n"
        "    return [d for d in np.unique(src).tolist()], [e for e in range(len(routes))]\n"
    )
    assert sorted(_offences(tree)) == [
        ("<module>", "binds Route3D"),
        ("<module>", "defines InterfaceExchange"),
        ("<module>", "defines Route"),
        ("edges", "walks the route table"),
        ("exchange", "walks the route table"),
        ("pack", "walks the route table"),
        ("pack", "walks the route table"),
        ("routes_from", "walks the route table"),
    ]
