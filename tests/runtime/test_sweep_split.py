"""A lone 2D solve's backward direction on a forked helper
(``repro.runtime.sweep_split``): the same bits as the in-process sweep,
a recorded reason whenever it does not split, and a named, bounded
outcome for every failure (DESIGN.md, "Fault model").

On a one-CPU affinity mask (``taskset -c 0``) nothing splits: the
equivalence tests then compare the in-process path with itself, and the
tests that need a helper skip.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.geometry import BoundaryCondition, Geometry
from repro.runtime import AntMocApplication
from repro.runtime.antmoc import GEOMETRY_BUILDERS
from repro.runtime.cpus import cpu_budget
from repro.runtime.sweep_split import (
    BACKEND,
    DECOMPOSED,
    NO_AFFINITY,
    NOT_TOP_LEVEL,
    ONE_SWEEP,
    THREE_D,
    split_sweep,
    why_not_split,
)
from repro.scenario.batch import _share_count
from repro.serve import ServeOptions
from repro.solver import MOCSolver
from tests.observability.conftest import mini_2d_config, mini_3d_config
from tests.scenario.conftest import one_cpu_affinity

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
SPLITS = cpu_budget().processes >= 2
needs_split = pytest.mark.skipif(not SPLITS, reason="the split needs 2 usable CPUs")
SIDES = ("xmin", "xmax", "ymin", "ymax")


def _solver(num_polar=2, cmfd=False, boundary=None, iterations=4, backend=None):
    """A c5g7-mini solve of exactly ``iterations`` sweeps; ``boundary``
    puts one condition on every side (``None``: the builder's mix)."""
    geometry = GEOMETRY_BUILDERS["c5g7-mini"]()
    if boundary is not None:
        geometry = Geometry(
            geometry.root, boundary={side: boundary for side in SIDES}, name="mini"
        )
    return MOCSolver.for_2d(
        geometry, num_azim=4, azim_spacing=0.5, num_polar=num_polar,
        keff_tolerance=1e-14, source_tolerance=1e-14, max_iterations=iterations,
        backend=backend, cmfd=cmfd,
    )


def _assert_same(got, want):
    assert float(got.keff).hex() == float(want.keff).hex()
    assert got.num_iterations == want.num_iterations
    np.testing.assert_array_equal(got.scalar_flux, want.scalar_flux)


def _children() -> set[int]:
    """Live (non-zombie) children of this process."""
    found: set[int] = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        found.update(int(pid) for pid in (task / "children").read_text().split())
    return {pid for pid in found if _state(pid) not in (None, "Z")}


def _state(pid: int) -> str | None:
    """``/proc`` state letter of ``pid`` (``None``: no such process)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    polar=st.sampled_from([1, 2, 3]),
    cmfd=st.booleans(),
    boundary=st.sampled_from([BoundaryCondition.VACUUM, BoundaryCondition.REFLECTIVE]),
    iterations=st.integers(2, 6),
)
def test_split_equals_in_process(polar, cmfd, boundary, iterations):
    """Bitwise: eigenvalue, iteration count and flux, for P = 1, 2, 3
    polar angles per half space, CMFD on and off, vacuum and reflective
    boundaries."""
    build = dict(num_polar=2 * polar, cmfd=cmfd, boundary=boundary, iterations=iterations)
    want = _solver(**build).solve()
    solver = _solver(**build)
    with split_sweep(solver) as record:
        got = solver.solve()
    _assert_same(got, want)
    assert record.processes == (2 if SPLITS else 1)
    assert solver.sweeper.split is None


def test_sweeper_is_whole_after_a_split_solve():
    """The caller freed its direction-1 buffers while the helper swept
    them; a later in-process solve on the same sweeper is bitwise the one
    a never-split sweeper computes."""
    alone = _solver(cmfd=True)
    alone.solve()
    want = alone.solve()
    solver = _solver(cmfd=True)
    with split_sweep(solver):
        solver.solve()
    _assert_same(solver.solve(), want)


def test_cli_run_leaves_nothing_behind():
    """A split ``AntMocApplication`` run: same bits as the in-process run,
    no child alive afterwards, nothing new in ``/dev/shm``, the affinity
    mask as it was; the CLI report says how the sweep ran."""
    cfg = mini_2d_config(solver={"max_iterations": 6, "keff_tolerance": 1e-14,
                                 "source_tolerance": 1e-14, "cmfd": True})
    with one_cpu_affinity():
        want = AntMocApplication(cfg).run()
    mask, shm, children = os.sched_getaffinity(0), set(os.listdir("/dev/shm")), _children()
    got = AntMocApplication(cfg).run()
    assert float(got.keff).hex() == float(want.keff).hex()
    np.testing.assert_array_equal(got.scalar_flux, want.scalar_flux)
    # The split depends on the host, so the run report — which a served
    # and a CLI solve of one config share — does not say it: only the
    # durations differ.
    got_report, want_report = got.run_report.to_dict(), want.run_report.to_dict()
    for key in ("manifest", "results", "counters"):
        assert got_report[key] == want_report[key]
    assert set(got_report["stages"]) == set(want_report["stages"])
    assert want.sweep_split.processes == 1 and want.sweep_split.reason == "1 usable CPU"
    assert got.sweep_split.processes == (2 if SPLITS else 1)
    assert "sweep       : " in got.report()
    assert os.sched_getaffinity(0) == mask
    assert set(os.listdir("/dev/shm")) <= shm
    assert _children() <= children


class TestWhyNot:
    """Every run that stays on one process says why."""

    def test_decomposed(self):
        cfg = mini_2d_config(decomposition={"nx": 3, "ny": 1})
        assert AntMocApplication(cfg).run().sweep_split.reason == DECOMPOSED

    def test_3d(self):
        assert AntMocApplication(mini_3d_config()).run().sweep_split.reason == THREE_D

    def test_backend(self):
        assert why_not_split(_solver(backend="reference")) == BACKEND

    def test_one_cpu(self):
        with one_cpu_affinity():
            assert why_not_split(_solver()) == "1 usable CPU"

    def test_no_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert why_not_split(_solver()) == "no fork"

    def test_not_top_level(self):
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe(duplex=False)
        solver = _solver()
        child = ctx.Process(target=lambda: theirs.send(why_not_split(solver)))
        child.start()
        assert ours.recv() == NOT_TOP_LEVEL
        child.join()

    def test_one_sweep(self):
        solver = _solver(iterations=1)
        with split_sweep(solver) as record:
            solver.solve()
        assert record.processes == 1
        assert record.reason == (ONE_SWEEP if SPLITS else "1 usable CPU")

    @needs_split
    def test_affinity_not_settable(self, monkeypatch):
        def refuse(pid, mask):
            raise OSError(1, "Operation not permitted")

        want = _solver().solve()
        solver = _solver()
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        with split_sweep(solver) as record:
            got = solver.solve()
        _assert_same(got, want)
        assert (record.processes, record.reason) == (1, NO_AFFINITY)


def test_one_cpu_budget():
    """The serve slots' default count, the scenario fan-out and the split
    size themselves with one function; nothing else in ``src/`` counts
    the affinity mask."""
    counted = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "len(os.sched_getaffinity" in path.read_text(encoding="utf-8")
    )
    assert counted == ["runtime/cpus.py"]
    with one_cpu_affinity():
        assert cpu_budget() == (1, "1 usable CPU")
        assert ServeOptions().solver_threads == 1
        assert _share_count(4) == 1
    assert ServeOptions().solver_threads == cpu_budget().processes
    assert _share_count(4) == min(4, cpu_budget().processes)


def _on_sweep(solver, action):
    """Run ``action(split)`` before every sweep once the helper is up."""
    sweeper = solver.sweeper
    original = sweeper.sweep

    def sweep(reduced_source):
        split = sweeper.split
        if split is not None and split._pid is not None:
            action(split)
        return original(reduced_source)

    sweeper.sweep = sweep


@needs_split
class TestFaults:
    def test_killed_helper(self):
        """SIGKILL the helper mid-solve: a SolverError naming it and the
        signal within a second, no child left, the mask restored, and the
        next solve in this process bitwise the in-process one."""
        mask, children = os.sched_getaffinity(0), _children()
        solver = _solver(iterations=50)
        killed = {}

        def kill(split):
            if not killed:
                killed.update(pid=split._pid, at=time.perf_counter())
                os.kill(split._pid, signal.SIGKILL)

        _on_sweep(solver, kill)
        died = r"sweep helper \(pid \d+\) died \(killed by SIGKILL\)"
        with pytest.raises(SolverError, match=died) as err:
            with split_sweep(solver):
                solver.solve()
        assert time.perf_counter() - killed["at"] < 1.0
        assert f"pid {killed['pid']}" in str(err.value)
        assert _state(killed["pid"]) is None
        assert _children() <= children
        assert os.sched_getaffinity(0) == mask

        want = _solver().solve()
        again = _solver()
        with split_sweep(again) as record:
            got = again.solve()
        _assert_same(got, want)
        assert record.processes == 2

    def test_exception_in_the_power_loop(self):
        """An exception leaving the power loop reaps the helper."""
        mask, children = os.sched_getaffinity(0), _children()
        solver = _solver(iterations=50)
        seen = []

        def fail(split):
            seen.append(split._pid)
            if len(seen) == 3:
                raise ArithmeticError("injected")

        _on_sweep(solver, fail)
        with pytest.raises(ArithmeticError, match="injected"):
            with split_sweep(solver):
                solver.solve()
        assert _state(seen[0]) is None
        assert _children() <= children
        assert os.sched_getaffinity(0) == mask

    def test_killed_caller(self):
        """SIGKILL the caller while its helper waits: the helper exits
        within two seconds."""
        script = (
            "import sys, time\n"
            "from tests.runtime.test_sweep_split import _on_sweep, _solver\n"
            "from repro.runtime.sweep_split import split_sweep\n"
            "solver = _solver(iterations=50)\n"
            "def hold(split):\n"
            "    print(split._pid, flush=True)\n"
            "    time.sleep(60)\n"
            "_on_sweep(solver, hold)\n"
            "with split_sweep(solver):\n"
            "    solver.solve()\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        caller = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env, cwd=ROOT
        )
        try:
            helper = int(caller.stdout.readline())
            assert _state(helper) not in (None, "Z")
            caller.kill()
            caller.wait()
            deadline = time.monotonic() + 2.0
            while _state(helper) not in (None, "Z") and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _state(helper) in (None, "Z")
        finally:
            caller.kill()
            caller.wait()
            caller.stdout.close()
