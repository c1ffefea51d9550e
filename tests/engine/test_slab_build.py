"""A slab is built where it is swept.

Under ``mp``, ``mp-async`` and their sanitized twins the parent of a
z-decomposed solve builds only what needs every slab (the radial laydown,
the 3D track tables, the routes, the coarse mesh and problem); each
worker segments, plans and tallies its own slabs in the solve's start-up
step. Under ``inproc`` the caller sweeps — and so builds — every slab.
The spies record the process of every call in a file, because a forked
worker's memory dies with it.

The fault rows of the start-up step (DESIGN "Fault model"): a worker
SIGKILLed, or raising a library error, while it builds its slab fails the
solve with a :class:`~repro.errors.SolverError` naming the worker within
:data:`~repro.runtime.cpus.GRACE_S`, leaves no child and no ``/dev/shm``
entry, and the next solve in the same process returns the ``inproc``
answer bit for bit.
"""

import multiprocessing
import os
import signal
import time

import pytest

import repro.trackmgmt
import repro.trackmgmt.manager as manager
import repro.tracks.generator as generator
from repro.errors import SolverError, TrackingError
from repro.parallel.driver3d import ZDecomposedSolver
from repro.runtime import AntMocApplication
from repro.runtime.antmoc import GEOMETRY_BUILDERS
from repro.runtime.cpus import GRACE_S
from repro.solver.backends.plan import SweepPlan
from repro.solver.cmfd import CurrentTally
from repro.solver.domain import Domain
from tests.observability.conftest import mini_3d_config
from tests.processes import shm_entries

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker builds need the fork start method",
)

SPIED = ("trace_3d_batch", "make_strategy", "SweepPlan.__init__", "CurrentTally.__init__")


def z2(engine, storage="MANAGER"):
    """C5G7 3D mini over two slabs and two workers, CMFD on."""
    return ZDecomposedSolver(
        GEOMETRY_BUILDERS["c5g7-3d-mini"](), num_domains=2, num_azim=4,
        azim_spacing=0.6, polar_spacing=1.0, num_polar=2, storage=storage,
        keff_tolerance=1e-14, source_tolerance=1e-14, max_iterations=3,
        engine=engine, workers=2, cmfd=True,
    )


def bits(result):
    return result.keff.hex(), result.num_iterations, result.scalar_flux.tobytes()


@pytest.fixture()
def builders(tmp_path, monkeypatch):
    """Spy on every slab builder; returns ``read() -> {name: {pid, ...}}``."""
    log = tmp_path / "calls"
    log.write_text("")

    def spy(name, fn):
        def call(*args, **kwargs):
            with open(log, "a", encoding="ascii") as out:
                out.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)

        return call

    for module in (generator, manager):
        monkeypatch.setattr(module, "trace_3d_batch", spy("trace_3d_batch", module.trace_3d_batch))
    monkeypatch.setattr(repro.trackmgmt, "make_strategy", spy("make_strategy", repro.trackmgmt.make_strategy))
    monkeypatch.setattr(SweepPlan, "__init__", spy("SweepPlan.__init__", SweepPlan.__init__))
    monkeypatch.setattr(CurrentTally, "__init__", spy("CurrentTally.__init__", CurrentTally.__init__))

    def read():
        pids = {name: set() for name in SPIED}
        for line in log.read_text(encoding="ascii").splitlines():
            name, pid = line.split()
            pids[name].add(int(pid))
        return pids

    return read


class TestWhereSlabsAreBuilt:
    @needs_fork
    @pytest.mark.parametrize("engine", ["mp", "mp-async", "mp-sanitize"])
    def test_the_parent_builds_no_slab(self, builders, engine):
        solver = z2(engine)
        solver.solve()
        built = builders()
        for name in SPIED:
            assert built[name], f"{name} never ran"
            assert os.getpid() not in built[name], f"{name} ran in the parent"
            assert len(built[name]) == 2, name  # one worker per slab
        assert all(d.sweeper is None and d.strategy is None for d in solver.domains)
        assert all(d.volumes is not None and d.segments_3d > 0 for d in solver.domains)

    def test_inproc_builds_every_slab_in_the_caller(self, builders):
        solver = z2("inproc")
        solver.solve()
        assert builders() == {name: {os.getpid()} for name in SPIED}
        assert all(d.strategy is not None for d in solver.domains)

    def test_construction_builds_no_slab(self, builders):
        z2("inproc")
        assert builders() == {name: set() for name in SPIED}


@needs_fork
def test_the_report_says_where_the_build_went():
    """The workers' build lands as ``worker_build`` rows, and the workload
    counters the parent learnt from the start-up step are inproc's."""
    reports = {}
    for engine in ("inproc", "mp"):
        config = mini_3d_config(
            decomposition={"nz": 2, "engine": engine, "workers": 2},
            solver={
                "max_iterations": 3, "keff_tolerance": 1e-14, "source_tolerance": 1e-14,
                "storage_method": "MANAGER", "resident_memory_bytes": 20000,
                "cmfd": {"enabled": True},
            },
        )
        reports[engine] = AntMocApplication(config).run().run_report
    names = ("tracks_3d", "segments_3d", "tracks_3d_resident", "tracks_3d_regenerated",
             "segments_swept")
    counters = {engine: report.counters.to_dict() for engine, report in reports.items()}
    assert {n: counters["mp"][n] for n in names} == {n: counters["inproc"][n] for n in names}
    assert counters["mp"]["tracks_3d_regenerated"] > 0 < counters["mp"]["tracks_3d_resident"]
    stages = reports["mp"].stages
    for row in ("worker_build_sum", "worker_build_max"):
        assert stages[f"transport_solving/{row}"] > 0.0
    assert stages["transport_solving/worker_build_max"] <= stages["transport_solving/worker_build_sum"]
    assert not any("worker_build" in name for name in reports["inproc"].stages)


def sigkill():
    os.kill(os.getpid(), signal.SIGKILL)


def raise_library_error():
    raise TrackingError("injected build failure")


@needs_fork
class TestBuildFaults:
    @pytest.mark.parametrize("engine", ["mp", "mp-async"])
    @pytest.mark.parametrize(
        "fault, match",
        [
            (sigkill, r"worker 1 died without a report \(killed by SIGKILL\)"),
            (raise_library_error, r"(?s)worker 1:\n.*TrackingError: injected build failure"),
        ],
        ids=["sigkill", "library-error"],
    )
    def test_a_failed_build_fails_the_solve_by_name(self, monkeypatch, engine, fault, match):
        before = shm_entries()
        solver = z2(engine)
        build = Domain.build

        def faulty(domain):
            if domain is solver.domains[1]:  # worker 1's slab, in worker 1
                fault()
            return build(domain)

        monkeypatch.setattr(Domain, "build", faulty)
        started = time.monotonic()
        with pytest.raises(SolverError, match=match):
            solver.solve()
        assert time.monotonic() - started < GRACE_S
        assert multiprocessing.active_children() == []
        assert shm_entries() == before
        monkeypatch.setattr(Domain, "build", build)
        assert bits(solver.solve()) == bits(z2("inproc").solve())
