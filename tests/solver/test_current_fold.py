"""The CMFD current fold: last-sweep semantics on every solve path, and no
``np.add.at`` on the sweep path.

``CurrentTally.accumulate`` *writes* one sweep's currents (an ordered
``np.bincount``) and ``take()`` hands them over without zeroing. That is
bitwise the running ``np.add.at`` sum it replaced only because every
``take()`` follows exactly one fold since the previous ``take()`` /
``reset()``. The spy below checks that on each solve path, forked workers
included (they append to the same event log). Frozen states of a scenario
batch keep folding without a ``take()``; they are never read again.
"""

import ast
import multiprocessing
import os
from collections import defaultdict
from pathlib import Path

import pytest

from repro.runtime import AntMocApplication
from repro.solver.cmfd import CurrentTally
from tests.observability.conftest import mini_2d_config, mini_3d_config
from tests.scenario.conftest import batch_config, one_cpu_affinity

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="mp engines require the fork start method",
)

CMFD = {"cmfd": {"enabled": True}}
SOLVER_3D = {"max_iterations": 3, "keff_tolerance": 1e-14, "source_tolerance": 1e-14}
SOLVER_2D = {"max_iterations": 5, "keff_tolerance": 1e-14, "source_tolerance": 1e-14}


def _config(case: str):
    if case == "2d-single":
        return mini_2d_config(solver={**SOLVER_2D, **CMFD})
    if case in ("3d-exp", "3d-manager"):
        storage = case.split("-")[1].upper()
        return mini_3d_config(solver={**SOLVER_3D, **CMFD, "storage_method": storage})
    if case == "inproc":
        return mini_2d_config(
            solver={**SOLVER_2D, **CMFD}, decomposition={"nx": 3, "ny": 3}
        )
    return mini_3d_config(
        solver={**SOLVER_3D, **CMFD, "storage_method": "EXP"},
        decomposition={"nz": 2, "engine": case, "workers": 2},
    )


@pytest.fixture()
def fold_log(monkeypatch, tmp_path):
    """Wrap the tally's fold / take / reset; every event is one line
    ``pid tally event pending`` in a file, so forked workers report too.
    ``pending`` is the number of folds since the last take / reset."""
    path = tmp_path / "folds.log"
    pending: dict[int, int] = defaultdict(int)
    accumulate, take, reset = CurrentTally.accumulate, CurrentTally.take, CurrentTally.reset

    def log(tally, event):
        with open(path, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {id(tally)} {event} {pending[id(tally)]}\n")

    def spy_accumulate(tally, psi):
        accumulate(tally, psi)
        pending[id(tally)] += 1
        log(tally, "fold")

    def spy_take(tally):
        log(tally, "take")
        pending[id(tally)] = 0
        return take(tally)

    def spy_reset(tally):
        pending[id(tally)] = 0
        log(tally, "reset")
        return reset(tally)

    monkeypatch.setattr(CurrentTally, "accumulate", spy_accumulate)
    monkeypatch.setattr(CurrentTally, "take", spy_take)
    monkeypatch.setattr(CurrentTally, "reset", spy_reset)

    def events():
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        return [(int(p), int(t), e, int(n)) for p, t, e, n in map(str.split, lines)]

    return events


def _check(events):
    """Every take follows exactly one fold; returns the pending fold
    count each tally ended the solve with."""
    takes = [event for event in events if event[2] == "take"]
    assert takes, "no tally was read"
    assert [n for *_, n in takes if n != 1] == []
    last = {}
    for pid, tally, event, n in events:
        last[(pid, tally)] = n if event == "fold" else 0
    return last


@pytest.mark.parametrize(
    "case",
    [
        "2d-single",
        "3d-exp",
        "3d-manager",
        "inproc",
        pytest.param("mp", marks=needs_fork),
        pytest.param("mp-async", marks=needs_fork),
    ],
)
def test_every_take_follows_one_fold(fold_log, case):
    AntMocApplication(_config(case)).run()
    events = fold_log()
    _check(events)
    parent = os.getpid()
    readers = {pid for pid, _, event, _ in events if event == "take"}
    if case.startswith("mp"):
        assert parent not in readers  # the workers fold and take
    else:
        assert readers == {parent}


def test_frozen_batch_states_fold_unread(fold_log):
    """A scenario batch: states converge at different iterations, and a
    frozen state's tally folds on, never read again."""
    from repro.scenario import run_scenario_batch

    config = batch_config(
        solver={"max_iterations": 60, "keff_tolerance": 1e-5,
                "source_tolerance": 1e-3, **CMFD},
    )
    with one_cpu_affinity():  # one share: all four states in this process
        batch = run_scenario_batch(config, mode="batched")
    assert batch.batched
    iterations = [state.num_iterations for state in batch.states]
    assert len(set(iterations)) > 1
    last = _check(fold_log())
    assert len(last) == len(batch.states)
    frozen = sorted(n for n in last.values() if n)
    assert frozen == sorted(max(iterations) - i for i in iterations if i < max(iterations))


# ------------------------------------------------------------- add.at guard

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Where ``np.add.at`` may stay: the reference backend is the seed oracle,
#: and the coarse assembly scatters a few hundred terms once per solve.
ALLOWED_ADD_AT = {
    ("solver/backends/reference_backend.py", "ReferenceSweepBackend.sweep2d"),
    ("solver/backends/reference_backend.py", "ReferenceSweepBackend.sweep3d"),
    ("solver/cmfd.py", "CmfdProblem._assemble"),
}


def add_at_sites(tree: ast.AST, path: str) -> list[tuple[str, str]]:
    """``(path, Class.function)`` of every ``np.add.at`` / ``numpy.add.at``
    reference in ``tree``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "at"
                and isinstance(child.value, ast.Attribute)
                and child.value.attr == "add"
                and isinstance(child.value.value, ast.Name)
                and child.value.value.id in ("np", "numpy")
            ):
                sites.append((path, ".".join(scope)))
            visit(child, scope)

    visit(tree, ())
    return sites


def _tree_sites() -> list[tuple[str, str]]:
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += add_at_sites(tree, path.relative_to(SRC).as_posix())
    return sites


def test_add_at_only_at_allowed_sites():
    """No scatter-add on the sweep path: ``np.add.at`` appears under
    ``src/repro`` only at the allow-listed sites, once each."""
    assert sorted(_tree_sites()) == sorted(ALLOWED_ADD_AT)


def test_add_at_guard_sees_a_fold_scatter():
    """Negative control: an ``np.add.at`` put back into the current fold
    is flagged."""
    path = SRC / "solver" / "cmfd.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tally = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CurrentTally")
    accumulate = next(n for n in tally.body if getattr(n, "name", None) == "accumulate")
    accumulate.body += ast.parse("np.add.at(self._currents, self._fold_slots, contrib)").body
    sites = add_at_sites(tree, "solver/cmfd.py")
    assert ("solver/cmfd.py", "CurrentTally.accumulate") in sites
    assert not set(sites) <= ALLOWED_ADD_AT
