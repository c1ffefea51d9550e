"""Keep the run pipeline written once (``repro.runtime.antmoc``).

A second place that expands a ``RunConfig`` into solver keywords, a
second call site of a solver constructor, or a second function entering
the ``transport_solving`` stage is a copy of the pipeline growing back.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.runtime import AntMocApplication
from tests.observability.conftest import mini_2d_config, mini_3d_config

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CONSTRUCTORS = ("MOCSolver.for_2d", "MOCSolver.for_3d", "DecomposedSolver", "ZDecomposedSolver")


def _functions_where(matches, paths=None):
    """``file:function`` of every function holding a node ``matches``."""
    found = set()
    for path in paths or sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                matches(node) for node in ast.walk(func)
            ):
                found.add(f"{rel}:{func.name}")
    return found


def test_one_config_expansion_one_solver_choice():
    reads_config = _functions_where(
        lambda n: isinstance(n, ast.Attribute) and ast.unparse(n).endswith(".solver.keff_tolerance")
    )
    assert {f for f in reads_config if not f.startswith("io/config.py:")} == {
        "runtime/antmoc.py:solver_keywords"
    }
    builds = _functions_where(
        lambda n: isinstance(n, ast.Call) and ast.unparse(n.func) in CONSTRUCTORS
    )
    assert builds == {"runtime/antmoc.py:build_solver"}


def test_one_pass_through_the_stages():
    antmoc = [SRC / "runtime" / "antmoc.py"]
    enters = _functions_where(
        lambda n: isinstance(n, ast.Call)
        and ast.unparse(n.func).endswith("stage")
        and "TRANSPORT_SOLVING" in ast.unparse(n),
        antmoc,
    )
    assert enters == {"runtime/antmoc.py:run"}
    assert not hasattr(AntMocApplication, "_run_3d")
    batch = ast.parse((SRC / "scenario" / "batch.py").read_text(encoding="utf-8"))
    for func in ast.walk(batch):
        if isinstance(func, ast.FunctionDef):
            assert "mirror" not in (ast.get_docstring(func) or "").lower(), func.name


def _golden(case):
    record = json.loads((ROOT / "tests" / "goldens" / f"{case}.json").read_text())
    return set(record["stage_names"]), set(record["counter_names"])


#: Report shape per run kind, as the four written-out pipelines produced
#: it: the decomposed kinds add the three halo counters, the extruded
#: kinds what their storage strategies kept and regenerated, nothing else.
STORAGE_COUNTERS = {"tracks_3d_resident", "tracks_3d_regenerated"}
KINDS = {
    "2d": (mini_2d_config, {}, "c5g7-mini-2d"),
    "2d-nx3": (mini_2d_config, {"decomposition": {"nx": 3, "ny": 1}}, "c5g7-3d-z2"),
    "3d": (mini_3d_config, {}, "c5g7-mini-2d"),
    "3d-nz2": (mini_3d_config, {"decomposition": {"nz": 2}}, "c5g7-3d-z2"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_run_kind_reports_the_same_shape(kind):
    config, overrides, golden = KINDS[kind]
    report = AntMocApplication(config(**overrides)).run().run_report
    stage_names, counter_names = _golden(golden)
    counter_names -= STORAGE_COUNTERS
    if kind.startswith("3d"):
        counter_names |= STORAGE_COUNTERS
    assert {name for name in report.stages if "/" not in name} == stage_names
    assert set(report.counters.to_dict()) == counter_names
