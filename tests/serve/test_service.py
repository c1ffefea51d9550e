"""The in-process solve service: reuse, admission, deadlines, failure."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.observability.counters import SERVICE_ONLY_COUNTERS
from repro.serve import JobState, ServeOptions, SolveService

from .conftest import solve_payload


class TestSolvePath:
    def test_first_solve_is_a_miss_with_visible_counters(self, service, payload):
        job = service.solve(payload)
        assert job.state is JobState.DONE
        assert not job.cache_hit
        counters = job.report.to_dict()["counters"]
        assert counters["serve_requests"] == 1
        assert counters["report_cache_hits"] == 0
        assert counters["report_cache_misses"] == 1

    def test_exact_repeat_is_a_cache_hit(self, service, payload):
        fresh = service.solve(payload)
        repeat = service.solve(payload)
        assert repeat.cache_hit and not fresh.cache_hit
        counters = repeat.report.to_dict()["counters"]
        assert counters["report_cache_hits"] == 1
        assert counters["report_cache_misses"] == 0

    def test_hit_is_bitwise_equal_to_the_fresh_solve(self, service, payload):
        fresh = service.solve(payload)
        repeat = service.solve(payload)
        r_fresh, r_repeat = fresh.report.to_dict(), repeat.report.to_dict()
        assert r_fresh["results"] == r_repeat["results"]
        assert r_fresh["manifest"] == r_repeat["manifest"]
        strip = lambda c: {k: v for k, v in c.items() if k not in SERVICE_ONLY_COUNTERS}
        assert strip(r_fresh["counters"]) == strip(r_repeat["counters"])
        assert np.array_equal(fresh.scalar_flux, repeat.scalar_flux)

    def test_different_manifest_is_a_miss(self, service, payload):
        service.solve(payload)
        other = solve_payload()
        other["solver"]["max_iterations"] = 3
        job = service.solve(other)
        assert not job.cache_hit

    def test_serve_latency_lands_in_stages_and_spans(self, service, payload):
        report = service.solve(payload).report.to_dict()
        assert {"serve", "serve/queued", "serve/execute"} <= set(report["stages"])
        roots = [span["name"] for span in report["spans"]]
        assert "serve" in roots
        serve_span = next(s for s in report["spans"] if s["name"] == "serve")
        assert [c["name"] for c in serve_span["children"]] == ["queued", "execute"]

    def test_solver_stages_are_untouched_by_annotation(self, service, payload):
        report = service.solve(payload).report.to_dict()
        assert "transport_solving" in report["stages"]


class TestSolveGate:
    """Fresh solves run one at a time; cache hits do not take the gate."""

    def test_fresh_solves_never_overlap(self, service, monkeypatch):
        run, guard = service._run, threading.Lock()
        active, seen = [], []

        def counted(job):
            with guard:
                active.append(job)
                seen.append(len(active))
            try:
                return run(job)
            finally:
                with guard:
                    active.remove(job)

        monkeypatch.setattr(service, "_run", counted)
        jobs = []
        for iterations in (2, 3, 4, 5):
            request = solve_payload()
            request["solver"]["max_iterations"] = iterations
            jobs.append(service.submit(request))
        assert [job.wait(timeout=60.0) for job in jobs] == [JobState.DONE] * 4
        assert seen == [1, 1, 1, 1]

    def test_hit_is_answered_while_a_solve_holds_the_gate(self, service, payload, monkeypatch):
        service.solve(payload)  # cached from here on
        run = service._run
        entered, release = threading.Event(), threading.Event()

        def held(job):
            entered.set()
            assert release.wait(timeout=60.0)
            return run(job)

        monkeypatch.setattr(service, "_run", held)
        slow = solve_payload()
        slow["solver"]["max_iterations"] = 3
        first = service.submit(slow)
        assert entered.wait(timeout=60.0)
        hit = service.submit(payload)
        assert hit.wait(timeout=60.0) is JobState.DONE and hit.cache_hit
        assert not first.done
        # A second fresh solve waits at the gate, and that wait is queueing.
        other = solve_payload()
        other["solver"]["max_iterations"] = 4
        second = service.submit(other)
        released_at = time.monotonic()
        release.set()
        assert first.wait(timeout=60.0) is JobState.DONE
        assert second.wait(timeout=60.0) is JobState.DONE
        assert second.queued_seconds >= released_at - second.enqueued_at
        assert second.report.to_dict()["stages"]["serve/queued"] == second.queued_seconds


class TestJobRegistry:
    def test_jobs_are_addressable_by_id(self, service, payload):
        job = service.solve(payload, tag="lookup")
        assert service.job(job.job_id) is job

    def test_unknown_job_id_raises(self, service):
        with pytest.raises(ServeError, match="unknown job id"):
            service.job("job-999999")

    def test_solve_raises_on_nonterminal_failure(self, service, payload):
        payload["decomposition"] = {"nx": 2, "ny": 2}  # 2x2 cannot tile 3x3
        with pytest.raises(ServeError, match="failed"):
            service.solve(payload)

    def test_service_survives_a_failed_job(self, service, payload):
        bad = solve_payload(decomposition={"nx": 2, "ny": 2})
        with pytest.raises(ServeError):
            service.solve(bad)
        assert service.solve(payload).state is JobState.DONE
        assert service.stats()["totals"]["failed"] == 1


class TestAdmissionControl:
    def test_overflow_is_rejected_terminal_not_an_exception(self, idle_service, payload):
        jobs = [idle_service.submit(payload) for _ in range(4)]
        states = [job.state for job in jobs]
        assert states[:3] == [JobState.QUEUED] * 3
        assert states[3] is JobState.REJECTED
        assert "capacity" in jobs[3].error
        assert idle_service.stats()["totals"]["rejected"] == 1

    def test_queue_deadline_times_out_at_dequeue(self, payload):
        service = SolveService(ServeOptions(solver_threads=1))
        job = service.submit(payload, timeout=0.05)
        time.sleep(0.15)  # expire while no solver thread is running
        service.start()
        assert job.wait(timeout=30.0) is JobState.TIMED_OUT
        assert "deadline" in job.error
        assert service.stats()["totals"]["timed_out"] == 1
        service.close()

    def test_abortive_close_rejects_the_backlog(self, payload):
        service = SolveService(ServeOptions(solver_threads=1))
        jobs = [service.submit(payload) for _ in range(3)]
        service.close(drain=False)
        assert all(job.state is JobState.REJECTED for job in jobs)
        assert all("shut down" in job.error for job in jobs)

    def test_submissions_after_close_are_rejected(self, payload):
        service = SolveService()
        service.start()
        service.close()
        job = service.submit(payload)
        assert job.state is JobState.REJECTED


class TestWarmState:
    def test_tracking_caches_are_shared_per_location(self, service, tmp_path, payload):
        cached = solve_payload(
            tracking={
                **payload["tracking"],
                "tracking_cache": True,
                "cache_dir": str(tmp_path),
            }
        )
        service.solve(cached)
        second = solve_payload(
            tracking=dict(cached["tracking"]),
            solver={**payload["solver"], "max_iterations": 3},
        )
        service.solve(second)  # same tracking fingerprint, different manifest
        assert len(service._tracking_caches) == 1
        assert list(tmp_path.glob("*.npz")) != []

    def test_stats_shape(self, service, payload):
        service.solve(payload)
        stats = service.stats()
        assert stats["totals"]["submitted"] == 1
        assert stats["queue_depth"] == 0
        assert stats["report_cache"]["capacity"] == 8
        assert {"hits", "misses", "free"} <= set(stats["arena_pool"])


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"solver_threads": 0},
            {"max_queue_depth": 0},
            {"report_cache_size": -1},
            {"default_timeout": 0.0},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServeOptions(**kwargs).validate()
