"""Keep "build one domain's solver state" written once (``repro.solver.domain``).

A second function constructing a sweeper, a 3D track generator or a
storage strategy is a copy of a :class:`~repro.solver.domain.Domain`
builder (``radial`` / ``extruded`` lay tracks down, ``build`` makes what
sweeps them) growing back — and the copies are how ``storage_method`` came to
be ignored at ``nz > 1``. ``repro.baselines`` is an independent method,
kept apart on purpose.
"""

import ast
from pathlib import Path

import repro.parallel
from repro.solver.sweep3d import TransportSweep3D

SRC = Path(__file__).resolve().parents[2] / "src"
SOURCES = [p for p in sorted((SRC / "repro").rglob("*.py")) if "baselines" not in p.parts]


def _functions_calling(name):
    """``file:function`` of every function holding a call of ``name``."""
    found = set()
    for path in SOURCES:
        rel = path.relative_to(SRC / "repro").as_posix()
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
                for node in ast.walk(func)
            ):
                found.add(f"{rel}:{func.name}")
    return found


def test_two_builders_construct_everything_a_domain_owns():
    """The builders lay tracks down; ``Domain.build`` — run by whoever
    sweeps the domain — is the one constructor of what sweeps them."""
    assert _functions_calling("TrackGenerator3D") == {"solver/domain.py:extruded"}
    for name in ("TransportSweep2D", "TransportSweep3D", "make_strategy"):
        assert _functions_calling(name) == {"solver/domain.py:build"}, name


def test_the_copies_and_the_override_are_gone():
    assert not hasattr(repro.parallel, "DomainSolver")
    assert not hasattr(repro.parallel, "SlabDomain")
    assert not hasattr(TransportSweep3D, "_cmfd_tally_for")
    for path in sorted(SRC.rglob("*.py")):
        assert "storage strategy override" not in path.read_text(encoding="utf-8"), path
