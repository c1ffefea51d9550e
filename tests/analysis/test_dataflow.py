"""Dataflow layer: CFG shapes, the forward solver, and the name lattices.

The shm-protocol rules are only as sound as this layer, so the tests pin
the properties those rules lean on: loop back edges exist (a bump inside
a loop body must see the loop-header path), must-analysis joins drop
facts that hold on only one branch, unreachable nodes come back as TOP
(``None``) instead of poisoning the intersection, and the arena/ownership
name lattices absorb the binding idioms the real engine workers use.
"""

import ast

from repro.analysis.dataflow.cfg import build_cfg, iter_functions, node_parts
from repro.analysis.dataflow.reachdef import (
    ReachingDefs,
    arena_handles,
    bound_names,
    derived_names,
    used_names,
)
from repro.analysis.dataflow.solver import solve_forward


def _cfg_of(source: str):
    func = next(iter_functions(ast.parse(source)))
    return build_cfg(func)


def _nodes_by_line(cfg):
    return {node.line: node for node in cfg.statement_nodes()}


class TestCfg:
    def test_straight_line_chain(self):
        cfg = _cfg_of("def f():\n    a = 1\n    b = 2\n    return b\n")
        lines = sorted(n.line for n in cfg.statement_nodes())
        assert lines == [2, 3, 4]
        preds = cfg.predecessors()
        assert preds[_nodes_by_line(cfg)[3].id] == {_nodes_by_line(cfg)[2].id}

    def test_for_loop_has_back_edge(self):
        cfg = _cfg_of("def f(xs):\n    for x in xs:\n        y = x\n    return y\n")
        by_line = _nodes_by_line(cfg)
        header, body = by_line[2], by_line[3]
        assert header.id in cfg.succ[body.id]  # back edge
        assert body.id in cfg.succ[header.id]
        assert by_line[4].id in cfg.succ[header.id]  # loop exit

    def test_if_branches_rejoin(self):
        cfg = _cfg_of(
            "def f(c):\n"
            "    if c:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        )
        by_line = _nodes_by_line(cfg)
        preds = cfg.predecessors()
        assert preds[by_line[6].id] == {by_line[3].id, by_line[5].id}

    def test_return_routes_to_exit(self):
        cfg = _cfg_of(
            "def f(c):\n"
            "    if c:\n"
            "        return 1\n"
            "    return 2\n"
        )
        by_line = _nodes_by_line(cfg)
        assert cfg.succ[by_line[3].id] == {cfg.exit}
        # The early return's node must not fall through to line 4.
        assert by_line[4].id not in cfg.succ[by_line[3].id]

    def test_while_true_body_unreachable_after(self):
        cfg = _cfg_of(
            "def f(q):\n"
            "    while True:\n"
            "        q.get()\n"
        )
        # No normal loop exit: the only route to exit is falling off nothing.
        by_line = _nodes_by_line(cfg)
        assert cfg.exit not in cfg.succ[by_line[2].id]

    def test_iter_functions_includes_nested(self):
        tree = ast.parse(
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
        )
        names = [func.name for func in iter_functions(tree)]
        assert names == ["outer", "inner"]

    def test_node_parts_skips_nested_function_bodies(self):
        cfg = _cfg_of(
            "def outer():\n"
            "    def inner():\n"
            "        dangerous()\n"
        )
        for node in cfg.statement_nodes():
            for part in node_parts(node):
                for sub in ast.walk(part):
                    assert not (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "dangerous"
                    )


class TestSolver:
    SOURCE = (
        "def f(c):\n"
        "    if c:\n"
        "        mark()\n"
        "    else:\n"
        "        pass\n"
        "    after()\n"
    )

    @staticmethod
    def _transfer(node):
        # Gen "marked" only at the bare `mark()` call statement — test/iter
        # nodes carry the whole compound statement, which would also match.
        gen = frozenset()
        if isinstance(node.stmt, ast.Expr) and "mark" in ast.dump(node.stmt):
            gen = frozenset({"marked"})
        return gen, frozenset()

    def test_may_analysis_unions_branches(self):
        cfg = _cfg_of(self.SOURCE)
        facts = solve_forward(cfg, self._transfer, join="union")
        after = _nodes_by_line(cfg)[6]
        assert "marked" in (facts[after.id] or frozenset())

    def test_must_analysis_intersects_branches(self):
        cfg = _cfg_of(self.SOURCE)
        facts = solve_forward(cfg, self._transfer, join="intersection")
        after = _nodes_by_line(cfg)[6]
        assert "marked" not in (facts[after.id] or frozenset())

    def test_must_analysis_holds_when_all_paths_agree(self):
        cfg = _cfg_of(
            "def f(c):\n"
            "    if c:\n"
            "        mark()\n"
            "    else:\n"
            "        mark()\n"
            "    after()\n"
        )
        facts = solve_forward(cfg, self._transfer, join="intersection")
        after = _nodes_by_line(cfg)[6]
        assert "marked" in facts[after.id]

    def test_unreachable_node_is_top_not_empty(self):
        cfg = _cfg_of(
            "def f():\n"
            "    return 1\n"
            "    after()\n"
        )
        facts = solve_forward(cfg, self._transfer, join="intersection")
        after = _nodes_by_line(cfg)[3]
        assert facts[after.id] is None


class TestNameLattices:
    def test_bound_and_used_names(self):
        stmt = ast.parse("a, (b, c) = f(x, y[z])").body[0]
        assert bound_names(stmt) == {"a", "b", "c"}
        assert used_names(stmt.value) == {"f", "x", "y", "z"}

    def test_reaching_defs_kill_on_rebind(self):
        cfg = _cfg_of(
            "def f():\n"
            "    x = 1\n"
            "    x = 2\n"
            "    use(x)\n"
        )
        rd = ReachingDefs(cfg)
        use = _nodes_by_line(cfg)[4]
        (definition,) = rd.reaching(use.id)["x"]
        assert definition is not None
        assert definition.node_id == _nodes_by_line(cfg)[3].id

    def test_reaching_defs_merge_at_join(self):
        cfg = _cfg_of(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    use(x)\n"
        )
        rd = ReachingDefs(cfg)
        use = _nodes_by_line(cfg)[6]
        assert len(rd.reaching(use.id)["x"]) == 2

    def test_derived_names_transitive(self):
        cfg = _cfg_of(
            "def f(wid, owned, pack):\n"
            "    rows = {d: slice(d, d + 1) for d in owned}\n"
            "    for d in owned:\n"
            "        idx, tracks, dirs = pack.outgoing(d)\n"
            "        sl = rows[d]\n"
            "    other = unrelated()\n"
        )
        derived = derived_names(cfg, ("wid", "owned"))
        assert {"rows", "d", "idx", "tracks", "dirs", "sl"} <= derived
        assert "other" not in derived

    def test_arena_handles_cover_engine_binding_idioms(self):
        cfg = _cfg_of(
            "def worker(fields, halo):\n"
            "    phi = fields['phi']\n"
            "    currents = fields.get('currents')\n"
            "    flat = phi.ravel()\n"
            "    block = problem.block(d, phi)\n"
            "    misc = fields['unknown_field']\n"
        )
        handles = arena_handles(
            cfg, ["phi", "halo", "currents"]
        )
        assert handles["phi"] == "phi"
        assert handles["halo"] == "halo"  # parameter
        assert handles["currents"] == "currents"
        assert handles["flat"] == "phi"  # view chain
        assert handles["block"] == "phi"  # single-handle helper call
        assert "misc" not in handles  # not a declared arena field

    def test_arena_handles_conditional_binding(self):
        cfg = _cfg_of(
            "def worker(arena, cmfd):\n"
            "    currents = arena['currents'] if cmfd is not None else None\n"
        )
        handles = arena_handles(cfg, ["currents"])
        assert handles["currents"] == "currents"
