"""A solve imports only the solver.

The paper-scale models — the testbed specs (``repro.hardware``), the
Sec. 3.3 performance model (``repro.perfmodel``), the cluster timeline
(``repro.parallel.timeline``), the three-level load mapping
(``repro.loadbalance``) and the baselines (``repro.baselines``) — serve
the figure benches and examples. No run entry point may load them: each
process compiles what it imports, so every module here is start-up time
on every CLI run, served solve and forked child.

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

#: Package prefixes no entry point may load.
PAPER_MODEL = (
    "repro.hardware",
    "repro.perfmodel",
    "repro.parallel.timeline",
    "repro.loadbalance",
    "repro.baselines",
)


def loaded_modules(entry_point: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after importing
    ``entry_point``."""
    script = (
        "import importlib, json, sys\n"
        f"importlib.import_module({entry_point!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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
