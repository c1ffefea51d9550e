"""Keep the eigenvalue loop written once (``repro.solver.power``).

An iteration loop over ``max_iterations`` or a hand-built
``ConvergenceMonitor`` anywhere else in the solve packages is a second
power iteration growing back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PACKAGES = ("solver", "scenario", "engine", "parallel")
#: power.py holds the loop; mp-async keeps its own grant/harvest schedule
#: over power.py's steps; the fixed-source solve is a different iteration.
ALLOWED = {"solver/power.py", "engine/async_mp.py", "solver/fixed_source.py"}


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.While)):
            head = node.iter if isinstance(node, ast.For) else node.test
            if "max_iterations" in ast.unparse(head):
                yield node.lineno, "loop over max_iterations"
        elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
            "ConvergenceMonitor"
        ):
            yield node.lineno, "ConvergenceMonitor construction"


def test_one_eigenvalue_loop():
    found = []
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel in ALLOWED:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{rel}:{line}: {what}" for line, what in _offences(tree)]
    assert not found, "\n".join(found)


def test_guard_sees_the_loop_it_guards():
    power = ast.parse((SRC / "solver" / "power.py").read_text(encoding="utf-8"))
    kinds = {what for _, what in _offences(power)}
    assert kinds == {"loop over max_iterations", "ConvergenceMonitor construction"}
