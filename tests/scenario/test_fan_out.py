"""A scenario batch's states fan out over cores: the contract, pinned.

The states of a single-domain batch are cut into one contiguous share
per usable CPU; forked workers solve shares 1… and the caller share 0,
all through the one body ``_solve_share``. Nothing but the process's CPU
affinity and the state count sizes the fan-out, so these tests steer it
the same way: ``one_cpu_affinity()`` for a single share, the host's own
mask (two CPUs or more) for several.

Pinned here: bitwise equality across share counts and against the
sequential oracle, the cut, when nothing forks, what a dead or failing
share turns into (DESIGN.md "Fault model"), and that no exit path leaves
a child process or a ``/dev/shm`` entry behind.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
import os
import signal

import numpy as np
import pytest

from repro.errors import ScenarioError, SolverError
from repro.runtime.stages import StageName
from repro.scenario import batch as batch_module
from repro.scenario import run_scenario_batch

from tests.scenario.conftest import FOUR_STATES, batch_config, one_cpu_affinity
from tests.serve.test_equivalence import needs_fork

pytestmark = needs_fork

needs_two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="a second share needs a second usable CPU",
)

SHARE_COUNTERS = ("scenario_shares", "scenario_share")


def states(count):
    """``count`` distinct states: the nominal one plus fission-scaled branches."""
    scenarios = [{"name": "nominal", "perturbations": []}]
    for i in range(1, count):
        scenarios.append(
            {
                "name": f"fission-{i}",
                "perturbations": [
                    {
                        "kind": "scale_xs",
                        "material": "UO2",
                        "reaction": "fission",
                        "factor": 1.0 - 0.01 * i,
                    }
                ],
            }
        )
    return scenarios


def shares_of(batch):
    return [s.run_report.counters.to_dict()["scenario_share"] for s in batch.states]


def untimed(report):
    """A run report without wall-clock content and without the record of
    how the batch was cut: what must not depend on the share count."""
    payload = report.to_dict()
    payload["stages"] = sorted(
        name for name in payload["stages"] if not name.endswith("/share_wait")
    )
    del payload["spans"]
    for name in SHARE_COUNTERS:
        del payload["counters"][name]
    return payload


def assert_same_bits(left, right):
    for a, b in zip(left.states, right.states, strict=True):
        assert a.scenario.name == b.scenario.name
        assert float(a.keff).hex() == float(b.keff).hex(), a.scenario.name
        assert a.num_iterations == b.num_iterations, a.scenario.name
        assert np.array_equal(a.scalar_flux, b.scalar_flux), a.scenario.name
        assert np.array_equal(a.fission_rates, b.fission_rates), a.scenario.name


@pytest.fixture()
def forks(monkeypatch):
    """Every fork-context process started while the test runs, each with
    the arguments it was handed (``start`` drops them from the object)."""
    started = []
    original = multiprocessing.context.ForkProcess.start

    def recording(self):
        self.handed = self._args
        original(self)
        started.append(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording)
    return started


@pytest.fixture()
def leak_check():
    """No child of this process and no ``/dev/shm`` entry outlives the test."""
    before = set(os.listdir("/dev/shm"))
    yield
    assert multiprocessing.active_children() == []
    assert set(os.listdir("/dev/shm")) <= before


def gone(process):
    """Reaped: joined with an exit code, and its pid names nobody."""
    if process.exitcode is None:
        return False
    try:
        os.kill(process.pid, 0)
    except ProcessLookupError:
        return True
    return False


@needs_two_cpus
class TestSameBitsOnEveryShareCount:
    @pytest.mark.parametrize("cmfd", [False, True], ids=["no-cmfd", "cmfd"])
    def test_two_shares_equal_one_share_equal_the_oracle(self, cmfd, forks, leak_check):
        # Loose enough that states stop at different iterations with CMFD
        # on, so the two shares sweep a different number of times.
        cfg = batch_config(
            solver={
                "cmfd": {"enabled": cmfd},
                "max_iterations": 200 if cmfd else 8,
                "keff_tolerance": 1e-5 if cmfd else 1e-14,
                "source_tolerance": 1e-4 if cmfd else 1e-14,
            }
        )
        fanned = run_scenario_batch(cfg)
        assert len(forks) == 1
        with one_cpu_affinity():
            inline = run_scenario_batch(cfg)
            oracle = run_scenario_batch(cfg, mode="sequential")
        assert len(forks) == 1
        assert shares_of(fanned) == [0, 0, 1, 1] and shares_of(inline) == [0, 0, 0, 0]
        assert_same_bits(fanned, inline)
        assert_same_bits(fanned, oracle)
        for a, b in zip(fanned.states, inline.states):
            assert untimed(a.run_report) == untimed(b.run_report)
        assert fanned.num_sweeps == inline.num_sweeps == max(
            s.num_iterations for s in inline.states
        )

    def test_the_sequential_oracle_fans_out_too(self, forks, leak_check):
        cfg = batch_config()
        fanned = run_scenario_batch(cfg, mode="sequential")
        assert len(forks) == 1 and not fanned.batched and fanned.num_sweeps == 0
        with one_cpu_affinity():
            inline = run_scenario_batch(cfg, mode="sequential")
        assert_same_bits(fanned, inline)
        for a, b in zip(fanned.states, inline.states):
            assert untimed(a.run_report) == untimed(b.run_report)

    @pytest.mark.parametrize(
        "count, expected", [(3, [0, 0, 1]), (5, [0, 0, 0, 1, 1])], ids=["3", "5"]
    )
    def test_uneven_cut_keeps_scenario_order(self, count, expected, leak_check):
        # Exactly two shares, whatever the host offers beyond two CPUs.
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, set(allowed[:2]))
        try:
            cfg = batch_config(scenarios=states(count))
            batch = run_scenario_batch(cfg)
        finally:
            os.sched_setaffinity(0, set(allowed))
        assert [s.scenario.name for s in batch.states] == [s.name for s in cfg.scenarios]
        assert shares_of(batch) == expected
        assert all(
            s.run_report.counters.to_dict()["scenario_shares"] == 2 for s in batch.states
        )
        with one_cpu_affinity():
            assert_same_bits(batch, run_scenario_batch(cfg))

    def test_each_stage_is_announced_once(self, forks):
        announced = []
        run_scenario_batch(batch_config(), stage_hook=announced.append)
        assert len(forks) == 1
        assert announced == [stage.value for stage in StageName]
        assert len(announced) == 5

    def test_share_reports_say_who_waited_for_whom(self):
        batch = run_scenario_batch(batch_config())
        parent = StageName.TRANSPORT_SOLVING.value
        for state, share in zip(batch.states, shares_of(batch)):
            stages = state.run_report.stages
            if share == 0:
                # The caller's stage covers its wait for the sibling.
                assert 0.0 <= stages[f"{parent}/share_wait"] <= stages[parent]
            else:
                assert f"{parent}/share_wait" not in stages


class TestWhenNothingForks:
    def test_one_cpu_means_one_inline_share(self, forks, monkeypatch):
        calls = []
        original = batch_module._solve_share

        def spy(*args):
            calls.append((os.getpid(), args[-2:]))
            return original(*args)

        monkeypatch.setattr(batch_module, "_solve_share", spy)
        with one_cpu_affinity():
            batch = run_scenario_batch(batch_config())
        assert forks == []
        assert calls == [(os.getpid(), (0, 4))]
        for state in batch.states:
            counters = state.run_report.counters.to_dict()
            assert (counters["scenario_shares"], counters["scenario_share"]) == (1, 0)
            assert state.run_report.stages["transport_solving/share_wait"] == 0.0

    def test_a_single_state_never_forks(self, forks):
        batch = run_scenario_batch(batch_config(scenarios=[FOUR_STATES[1]]))
        assert forks == []
        assert shares_of(batch) == [0]

    @needs_two_cpus
    def test_every_worker_runs_the_inline_body(self, forks, monkeypatch):
        """One body: the function the caller runs inline for share 0 is
        the very one each worker is handed."""
        calls = []
        original = batch_module._solve_share

        def spy(*args):
            calls.append(args[-2:])
            return original(*args)

        monkeypatch.setattr(batch_module, "_solve_share", spy)
        run_scenario_batch(batch_config())
        assert calls == [(0, 2)]  # the caller's own share; the other ran in the fork
        (worker,) = forks
        _conn, solve, lo, hi = worker.handed
        assert solve.func is spy and (lo, hi) == (2, 4)

    @needs_two_cpus
    def test_a_daemonic_caller_solves_inline(self):
        """A daemon process may not have children: the batch must not try."""
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe(duplex=False)

        def body():
            batch = run_scenario_batch(batch_config())
            theirs.send([s.run_report.counters.to_dict() for s in batch.states])

        process = ctx.Process(target=body, daemon=True)
        process.start()
        theirs.close()
        try:
            assert ours.poll(60), "daemonic batch did not finish"
            counters = ours.recv()
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
                process.join()
        assert process.exitcode == 0
        assert [c["scenario_shares"] for c in counters] == [1, 1, 1, 1]


class _Sabotage:
    """Replaces ``_solve_share``: a forked worker's share first does
    ``in_worker(lo, hi)``, the caller's ``in_caller()``; whoever gets past
    that solves normally."""

    def __init__(self, monkeypatch, in_worker, in_caller=lambda: None):
        self._caller = os.getpid()
        self._original = batch_module._solve_share
        self._in_worker = in_worker
        self._in_caller = in_caller
        monkeypatch.setattr(batch_module, "_solve_share", self)

    def __call__(self, *args):
        if os.getpid() != self._caller:
            self._in_worker(*args[-2:])
        else:
            self._in_caller()
        return self._original(*args)


@needs_two_cpus
class TestFaults:
    """DESIGN.md "Fault model", the scenario-share row."""

    @pytest.fixture()
    def reference(self):
        with one_cpu_affinity():
            return run_scenario_batch(batch_config())

    def assert_recovered(self, forks, reference):
        """Every worker reaped, and the next batch is the W = 1 result."""
        assert forks and all(gone(process) for process in forks)
        assert multiprocessing.active_children() == []
        again = run_scenario_batch(batch_config())
        assert shares_of(again) == [0, 0, 1, 1]
        assert_same_bits(again, reference)

    def test_a_killed_share_fails_the_batch_by_name(
        self, forks, monkeypatch, reference, leak_check
    ):
        """SIGKILL from outside while the worker is provably alive: it is
        held on an inherited event, never a sleep."""
        ctx = multiprocessing.get_context("fork")
        holding, never = ctx.Event(), ctx.Event()

        def hold(lo, hi):
            holding.set()
            never.wait()

        def kill_the_held_worker():
            assert holding.wait(60)
            os.kill(forks[0].pid, signal.SIGKILL)

        _Sabotage(monkeypatch, hold, kill_the_held_worker)
        with pytest.raises(ScenarioError) as raised:
            run_scenario_batch(batch_config())
        assert str(raised.value) == "scenario share [2, 4) died (killed by SIGKILL)"
        monkeypatch.undo()
        self.assert_recovered(forks[:1], reference)

    def test_a_share_that_exits_silently_fails_the_batch_by_name(
        self, forks, monkeypatch, reference, leak_check
    ):
        _Sabotage(monkeypatch, lambda lo, hi: os._exit(3))
        with pytest.raises(ScenarioError, match=r"share \[2, 4\) died \(exit code 3\)"):
            run_scenario_batch(batch_config())
        monkeypatch.undo()
        self.assert_recovered(forks[:1], reference)

    def test_a_library_error_keeps_its_class(self, forks, monkeypatch, reference, leak_check):
        def refuse(lo, hi):
            raise SolverError("negative source in group 3")

        _Sabotage(monkeypatch, refuse)
        with pytest.raises(SolverError) as raised:
            run_scenario_batch(batch_config())
        assert type(raised.value) is SolverError
        assert str(raised.value) == "scenario share [2, 4): negative source in group 3"
        monkeypatch.undo()
        self.assert_recovered(forks[:1], reference)

    def test_any_other_error_arrives_with_the_workers_traceback(
        self, forks, monkeypatch, reference, leak_check
    ):
        _Sabotage(monkeypatch, lambda lo, hi: 1 // 0)
        with pytest.raises(ScenarioError) as raised:
            run_scenario_batch(batch_config())
        message = str(raised.value)
        assert message.startswith("scenario share [2, 4) failed:")
        assert "ZeroDivisionError" in message and "Traceback" in message
        monkeypatch.undo()
        self.assert_recovered(forks[:1], reference)

    def test_a_failing_share_takes_its_held_sibling_down(
        self, forks, monkeypatch, reference, leak_check
    ):
        """Three shares (one more than this host may have CPUs for, so the
        count is forced): share 1 raises while share 2 is held on an event
        — the sibling must be reaped before the exception leaves."""
        ctx = multiprocessing.get_context("fork")
        holding, never = ctx.Event(), ctx.Event()

        def in_worker(lo, hi):
            if lo == 2:
                assert holding.wait(60)  # the sibling is alive and stuck
                raise SolverError("boom")
            holding.set()
            never.wait()

        monkeypatch.setattr(batch_module, "_share_count", lambda num_states: 3)
        _Sabotage(monkeypatch, in_worker)
        with pytest.raises(SolverError, match=r"scenario share \[2, 3\): boom"):
            run_scenario_batch(batch_config())
        assert len(forks) == 2
        monkeypatch.undo()
        self.assert_recovered(forks[:2], reference)

    def test_a_failure_in_the_callers_share_reaps_the_workers(
        self, forks, monkeypatch, reference, leak_check
    ):
        ctx = multiprocessing.get_context("fork")
        holding, never = ctx.Event(), ctx.Event()
        caller = os.getpid()

        def body(*args):
            if os.getpid() == caller:
                assert holding.wait(60)
                raise SolverError("share 0 failed")
            holding.set()
            never.wait()

        monkeypatch.setattr(batch_module, "_solve_share", body)
        with pytest.raises(SolverError, match="^share 0 failed$"):
            run_scenario_batch(batch_config())
        monkeypatch.undo()
        self.assert_recovered(forks[:1], reference)
