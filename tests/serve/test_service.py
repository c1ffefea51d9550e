"""The in-process solve service: reuse, admission, deadlines, failure."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.observability.counters import SERVICE_ONLY_COUNTERS
from repro.serve import JobState, ServeOptions, SolveService

from .conftest import assert_reaped, solve_payload, wait_until


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


def varied(iterations):
    """A distinct manifest: the base request at another iteration budget."""
    request = solve_payload()
    request["solver"]["max_iterations"] = iterations
    return request


def execute_interval(job):
    start = job.enqueued_at + job.queued_seconds
    return start, start + job.execute_seconds


class TestSolveSlots:
    """Fresh solves run in the slots — one at a time per slot, side by
    side across slots; cache hits are answered in the solver threads."""

    def test_distinct_fresh_solves_overlap_across_slots(self, held_service, held):
        jobs = [held_service.submit(varied(n)) for n in (3, 4)]
        # Both are inside a slot body before either is released.
        assert {held.entered(), held.entered()} == {
            slot["pid"] for slot in held_service.stats()["slots"]
        }
        held.release()
        assert [job.wait(timeout=60.0) for job in jobs] == [JobState.DONE] * 2
        (start_a, end_a), (start_b, end_b) = map(execute_interval, jobs)
        assert max(start_a, start_b) < min(end_a, end_b)
        assert {job.report.counters["serve_slot"] for job in jobs} == {0, 1}

    def test_never_more_than_one_solve_per_slot(self, held_service, held):
        jobs = [held_service.submit(varied(n)) for n in (2, 3, 4, 5)]
        held.entered()
        held.entered()
        # Two slots, two solves: nothing else leaves the queue until one ends.
        assert held_service.stats()["queue_depth"] == 2
        assert [job.state for job in jobs[2:]] == [JobState.QUEUED] * 2
        assert held.solves_begun() == 0
        held.release()
        assert [job.wait(timeout=60.0) for job in jobs] == [JobState.DONE] * 4
        slots = held_service.stats()["slots"]
        assert sum(slot["solves"] for slot in slots) == 4
        assert all(slot["busy_seconds"] > 0.0 for slot in slots)

    def test_hit_is_answered_while_a_solve_holds_a_slot(self, held_service, held, payload):
        held.release()
        held_service.solve(payload)  # cached from here on
        held.hold()
        held.solves_begun()
        first = held_service.submit(varied(3))
        held.entered()
        hit = held_service.submit(payload)
        assert hit.wait(timeout=60.0) is JobState.DONE and hit.cache_hit
        assert "serve_slot" not in hit.report.counters
        assert not first.done
        held.release()
        assert first.wait(timeout=60.0) is JobState.DONE
        assert first.report.to_dict()["stages"]["serve/queued"] == first.queued_seconds


class TestSingleFlight:
    """Requests racing for one manifest's first touch solve it once."""

    def test_racing_first_touch_solves_once(self, held_service, held, payload):
        first = held_service.submit(payload)
        second = held_service.submit(payload)
        held.entered()
        wait_until(lambda: second.state is JobState.ADMITTED)  # following
        released_at = time.monotonic()
        held.release()
        assert first.wait(timeout=60.0) is JobState.DONE
        assert second.wait(timeout=60.0) is JobState.DONE
        assert held.solves_begun() == 0  # exactly the one solve entered above
        assert not first.cache_hit and second.cache_hit
        assert np.array_equal(first.scalar_flux, second.scalar_flux)
        assert first.report.to_dict()["results"] == second.report.to_dict()["results"]
        # Waiting for the leader is queueing, and it is in the report.
        assert second.queued_seconds >= released_at - second.enqueued_at
        assert second.report.to_dict()["stages"]["serve/queued"] == second.queued_seconds

    def test_stress_each_manifest_is_solved_once(self, held):
        """More solver threads than cores, submitters racing on a short
        switch interval: a lost update in the in-flight table or the
        registry would show as an extra solve or a miscounted total."""
        held.release()
        requests = [varied(n) for n in (2, 3, 4)] * 20
        options = ServeOptions(solver_threads=4, report_cache_size=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SolveService(options, slot_body=held) as service:
                jobs, guard = [], threading.Lock()

                def submitter(share):
                    for request in share:
                        job = service.submit(request)
                        with guard:
                            jobs.append(job)

                threads = [
                    threading.Thread(target=submitter, args=(requests[i::6],))
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                assert [job.wait(timeout=60.0) for job in jobs] == [JobState.DONE] * 60
                stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert held.solves_begun() == 3
        assert sum(not job.cache_hit for job in jobs) == 3
        assert stats["totals"]["submitted"] == stats["totals"]["done"] == 60
        assert sum(slot["solves"] for slot in stats["slots"]) == 3

    def test_follower_deadline_is_checked_again_after_the_wait(self, held_service, held, payload):
        held_service.submit(payload)
        held.entered()
        follower = held_service.submit(payload, timeout=0.05)
        wait_until(lambda: follower.state is JobState.ADMITTED)
        time.sleep(0.1)  # let the follower's queue deadline pass while it waits
        held.release()
        assert follower.wait(timeout=60.0) is JobState.TIMED_OUT
        assert "deadline" in follower.error

    def test_follower_solves_for_itself_when_nothing_was_cached(self, held, payload):
        options = ServeOptions(solver_threads=2, report_cache_size=0)
        with SolveService(options, slot_body=held) as service:
            jobs = [service.submit(payload), service.submit(payload)]
            held.entered()
            wait_until(lambda: jobs[1].state is JobState.ADMITTED)
            held.release()
            assert [job.wait(timeout=60.0) for job in jobs] == [JobState.DONE] * 2
        assert not jobs[0].cache_hit and not jobs[1].cache_hit
        assert held.solves_begun() == 1  # the follower's own solve
        assert np.array_equal(jobs[0].scalar_flux, jobs[1].scalar_flux)


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

    def test_finished_jobs_are_forgotten_beyond_the_queue_depth(self, payload):
        depth = 4
        with SolveService(ServeOptions(solver_threads=1, max_queue_depth=depth)) as service:
            ids = [service.solve(payload).job_id for _ in range(depth + 5)]
            for job_id in ids[:5]:
                with pytest.raises(ServeError, match="unknown job id"):
                    service.job(job_id)
            assert [service.job(job_id).job_id for job_id in ids[5:]] == ids[5:]

    def test_a_queued_job_is_never_forgotten(self, idle_service, payload):
        depth = idle_service.options.max_queue_depth
        queued = [idle_service.submit(payload) for _ in range(depth)]
        refused = [idle_service.submit(payload) for _ in range(depth + 2)]
        assert all(job.state is JobState.REJECTED for job in refused)
        for job in refused[:2]:  # the oldest finished ones went
            with pytest.raises(ServeError, match="unknown job id"):
                idle_service.job(job.job_id)
        for job in queued + refused[2:]:
            assert idle_service.job(job.job_id) is job

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

    def test_draining_close_finishes_the_solve_in_flight(self, held, payload):
        service = SolveService(ServeOptions(solver_threads=1), slot_body=held).start()
        pids = [slot["pid"] for slot in service.stats()["slots"]]
        running, queued = service.submit(payload), service.submit(varied(3))
        held.entered()
        closer = threading.Thread(target=service.close, kwargs={"drain": True})
        closer.start()
        held.release()
        closer.join(timeout=60.0)
        assert not closer.is_alive()
        assert running.state is JobState.DONE and queued.state is JobState.DONE
        assert_reaped(pids)

    def test_abortive_close_lets_the_solve_in_flight_finish(self, held, payload):
        service = SolveService(ServeOptions(solver_threads=1), slot_body=held).start()
        pids = [slot["pid"] for slot in service.stats()["slots"]]
        running = service.submit(payload)
        held.entered()
        backlog = [service.submit(varied(n)) for n in (3, 4)]
        closer = threading.Thread(target=service.close, kwargs={"drain": False})
        closer.start()
        assert [job.wait(timeout=60.0) for job in backlog] == [JobState.REJECTED] * 2
        assert not running.done
        held.release()
        closer.join(timeout=60.0)
        assert not closer.is_alive()
        assert running.state is JobState.DONE
        assert_reaped(pids)

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
        first = service.solve(cached)
        second = solve_payload(
            tracking=dict(cached["tracking"]),
            solver={**payload["solver"], "max_iterations": 3},
        )
        # Same tracking fingerprint, different manifest: whichever slot
        # solves it restores the laydown the first solve stored.
        shared = service.solve(second)
        assert first.report.counters["tracking_cache_hits"] == 0
        assert shared.report.counters["tracking_cache_hits"] == 1
        assert list(tmp_path.glob("*.npz")) != []

    def test_stats_shape(self, service, payload):
        service.solve(payload)
        stats = service.stats()
        assert stats["totals"]["submitted"] == 1
        assert stats["queue_depth"] == 0
        assert stats["report_cache"]["capacity"] == 8
        assert set(stats) == {
            "totals", "queue_depth", "report_cache", "slots", "solver_threads"
        }

    def test_stats_name_the_slots(self, service, payload):
        job = service.solve(payload)
        slots = service.stats()["slots"]
        assert [slot["index"] for slot in slots] == [0, 1]
        assert set(slots[0]) == {"index", "pid", "solves", "busy_seconds", "restarts"}
        solved = slots[job.report.counters["serve_slot"]]
        assert solved["solves"] == 1
        assert 0.0 < solved["busy_seconds"] <= job.execute_seconds
        assert all(slot["restarts"] == 0 for slot in slots)
        assert service.stats()["totals"]["slot_restarts"] == 0


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
