"""A solve imports only the solver.

The paper-scale models — the testbed specs (``repro.hardware``), the
Sec. 3.3 performance model (``repro.perfmodel``), the cluster timeline
(``repro.parallel.timeline``), the three-level load mapping
(``repro.loadbalance``) and the baselines (``repro.baselines``) — serve
the figure benches and examples. No run entry point may load them: each
process compiles what it imports, so every module here is start-up time
on every CLI run, served solve and forked child.

Nor may a single-domain entry point, or a single-domain solve, load
the decomposed drivers or their interface exchange
(``repro.parallel.driver*``, ``repro.parallel.exchange``): the run
builds one solver and imports only that one.

Each entry point is imported in a fresh interpreter and its
``sys.modules`` read. The assertion is on the module set, not on
seconds, so it does not depend on the host's speed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: Every module a run starts from: the CLI, the solve server, the run
#: pipeline, the scenario batch and the execution engines.
ENTRY_POINTS = [
    "repro.cli",
    "repro.serve.__main__",
    "repro.runtime.antmoc",
    "repro.scenario",
    "repro.engine",
]

#: The entry points a single-domain run starts from.
SINGLE_DOMAIN_ENTRY_POINTS = [
    "repro.cli",
    "repro.serve.__main__",
    "repro.runtime.antmoc",
    "repro.scenario",
]

#: The decomposed solvers' modules.
DECOMPOSED = ("repro.parallel.driver", "repro.parallel.driver3d", "repro.parallel.exchange")

#: Package prefixes no entry point may load.
PAPER_MODEL = (
    "repro.hardware",
    "repro.perfmodel",
    "repro.parallel.timeline",
    "repro.loadbalance",
    "repro.baselines",
)


def loaded_modules(entry_point: str, then: str = "") -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after importing
    ``entry_point`` and running the statements ``then``."""
    script = (
        "import importlib, json, sys\n"
        f"importlib.import_module({entry_point!r})\n"
        f"{then}"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout)


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_a_solve_imports_only_the_solver(entry_point):
    modules = loaded_modules(entry_point)
    assert entry_point in modules
    paper_model = [
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in PAPER_MODEL)
    ]
    assert paper_model == []


@pytest.mark.parametrize("entry_point", SINGLE_DOMAIN_ENTRY_POINTS)
def test_a_single_domain_entry_point_loads_no_decomposed_driver(entry_point):
    modules = loaded_modules(entry_point)
    assert entry_point in modules
    assert [name for name in modules if name.startswith(DECOMPOSED)] == []


def test_a_single_domain_solve_loads_no_decomposed_driver():
    """Through the whole pipeline: a c5g7-mini solve builds and runs its
    one solver without loading a decomposed one."""
    solve = (
        "from tests.observability.conftest import mini_2d_config\n"
        "from repro.runtime.antmoc import AntMocApplication\n"
        "AntMocApplication(mini_2d_config(solver={'max_iterations': 2})).run()\n"
    )
    modules = loaded_modules("repro.runtime.antmoc", then=solve)
    assert "repro.solver.keff" in modules
    assert [name for name in modules if name.startswith(DECOMPOSED)] == []
