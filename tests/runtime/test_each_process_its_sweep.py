"""Each process allocates only the sweep it runs.

Three paths used to make a process hold sweep buffers it never writes:
a scenario share sweeping all its states through the widened kernel, a
split solve whose helper inherited the caller's bound workspace, and the
CMFD current fold's ``K x G`` flat index. Pinned here: the default
scenario batch builds no widened sweep in any process; in a split solve
every workspace is bound after the fork, and the caller loads, steps and
reduces only direction 0 while the helper does only direction 1; the
per-group fold is bitwise the flat-index fold it replaced (kept below as
the oracle).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.runtime.cpus import cpu_budget
from repro.runtime.sweep_split import split_sweep
from repro.scenario import batch as batch_module
from repro.scenario import run_scenario_batch
from repro.scenario.batched import BatchedSweep2D
from repro.solver.backends import numpy_backend
from repro.solver.backends.numpy_backend import SweepWorkspace
from repro.solver.cmfd import fold_by_slot
from tests.runtime.test_sweep_split import _assert_same, _solver
from tests.scenario.conftest import batch_config


def flat_fold(slots: np.ndarray, contrib: np.ndarray, num_slots: int) -> np.ndarray:
    """The fold ``CurrentTally.accumulate`` ran before: one ``bincount``
    over the flat ``slot * G + g`` index of every fold row."""
    groups = contrib.shape[1]
    index = (slots[:, None] * groups + np.arange(groups)).ravel()
    return np.bincount(index, contrib.ravel(), num_slots * groups).reshape(num_slots, groups)


@settings(max_examples=200, deadline=None)
@given(
    num_slots=st.integers(0, 6),
    groups=st.integers(1, 4),
    rows=st.integers(0, 40),
    layout=st.sampled_from(["C", "F"]),
    data=st.data(),
)
def test_per_group_fold_is_the_flat_fold(num_slots, groups, rows, layout, data):
    """Bit for bit, with empty folds (no rows, or no slots at all), slots
    no row names, and row-major or group-major (``F``, the solve path's)
    terms. Terms span many binades, so a changed summation order would
    show in the low bits."""
    rows = rows if num_slots else 0
    slots = data.draw(arrays(np.intp, rows, elements=st.integers(0, max(num_slots - 1, 0))))
    magnitudes = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    contrib = np.asarray(
        data.draw(arrays(np.float64, (rows, groups), elements=magnitudes)), order=layout
    )
    got = fold_by_slot(slots, contrib, num_slots)
    # bincount without terms counts in integers; its zeros are 0.0 here.
    want = flat_fold(slots, contrib, num_slots).astype(np.float64)
    assert got.shape == want.shape == (num_slots, groups)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_auto_builds_no_widened_sweep(monkeypatch):
    """The default batch solves its states one at a time: no process —
    caller or forked share — constructs a ``BatchedSweep2D`` (a forked
    share that did would fail the batch by name)."""

    class Refused(BatchedSweep2D):
        def __init__(self, *args, **kwargs):
            raise AssertionError("a BatchedSweep2D was built")

    monkeypatch.setattr(batch_module, "BatchedSweep2D", Refused)
    cfg = batch_config(solver={"cmfd": {"enabled": True}})
    batch = run_scenario_batch(cfg)
    assert not batch.batched and batch.num_sweeps == 0
    # Positive control: the widened mode reaches the spy.
    with pytest.raises(AssertionError, match="BatchedSweep2D was built"):
        run_scenario_batch(cfg, mode="batched")


@pytest.mark.skipif(cpu_budget().processes < 2, reason="the split needs 2 usable CPUs")
def test_each_process_sweeps_only_its_direction(monkeypatch, tmp_path):
    """A split solve, CMFD on: the caller loads, steps and reduces
    direction 0 only, the helper direction 1 only, and each binds its
    workspace once, after the helper was forked. Both processes append
    one line per call to one file; the helper's lines outlive it."""
    log = os.open(tmp_path / "calls", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    caller = os.getpid()
    solver = _solver(cmfd=True, iterations=4)

    def note(kind, d):
        forked = os.getpid() != caller or solver.sweeper.split._pid is not None
        os.write(log, f"{os.getpid()} {kind} {d} {int(forked)}\n".encode())

    load, bins, bind, lockstep = (
        SweepWorkspace.load, SweepWorkspace.bins, SweepWorkspace.bind, numpy_backend.lockstep,
    )

    def spy_load(self, plan, d, psi, source):
        note("load", d)
        return load(self, plan, d, psi, source)

    def spy_bins(self, plan, d, num_fsrs, state=None):
        note("reduce", d)
        return bins(self, plan, d, num_fsrs, state)

    def spy_bind(self, plan, trailing):
        note("bind", "-")
        return bind(self, plan, trailing)

    def spy_lockstep(work, d, table, expf_at, capture):
        note("step", d)
        return lockstep(work, d, table, expf_at, capture)

    monkeypatch.setattr(SweepWorkspace, "load", spy_load)
    monkeypatch.setattr(SweepWorkspace, "bins", spy_bins)
    monkeypatch.setattr(SweepWorkspace, "bind", spy_bind)
    monkeypatch.setattr(numpy_backend, "lockstep", spy_lockstep)
    try:
        with split_sweep(solver) as record:
            got = solver.solve()
    finally:
        os.close(log)
    monkeypatch.undo()
    assert record.processes == 2
    _assert_same(got, _solver(cmfd=True, iterations=4).solve())

    calls: dict[int, list[tuple[str, str, str]]] = {}
    for line in (tmp_path / "calls").read_text().splitlines():
        pid, *call = line.split()
        calls.setdefault(int(pid), []).append(tuple(call))
    helper = calls.keys() - {caller}
    assert len(helper) == 1
    (helper,) = helper
    for pid, direction in ((caller, "0"), (helper, "1")):
        binds = [c for c in calls[pid] if c[0] == "bind"]
        swept = {c[:2] for c in calls[pid] if c[0] != "bind"}
        assert binds == [("bind", "-", "1")] * len(binds) and binds, pid
        assert swept == {("load", direction), ("step", direction), ("reduce", direction)}
        assert sum(c[0] == "load" for c in calls[pid]) == got.num_iterations
