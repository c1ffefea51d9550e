"""Tests for the stage timer / logging helpers."""

import contextlib
import io
import time

import pytest

from repro.io.logging_utils import StageTimer, get_logger


class TestStageTimer:
    def test_stage_records_duration(self):
        timer = StageTimer()
        with timer.stage("solve"):
            time.sleep(0.01)
        assert timer.duration("solve") >= 0.005

    def test_stage_accumulates(self):
        timer = StageTimer()
        with timer.stage("s"):
            pass
        with timer.stage("s"):
            pass
        assert timer.duration("s") >= 0.0
        assert list(timer.as_dict()) == ["s"]

    def test_record_simulated_time(self):
        timer = StageTimer()
        timer.record("sweep", 1.5)
        timer.record("sweep", 0.5)
        assert timer.duration("sweep") == 2.0

    def test_total(self):
        timer = StageTimer()
        timer.record("a", 1.0)
        timer.record("b", 2.0)
        assert timer.total == 3.0

    def test_report_contains_stages_and_total(self):
        timer = StageTimer()
        timer.record("geometry", 0.25)
        report = timer.report()
        assert "geometry" in report
        assert "TOTAL" in report

    def test_unknown_stage_duration_zero(self):
        assert StageTimer().duration("nope") == 0.0

    def test_exception_still_records(self):
        timer = StageTimer()
        try:
            with timer.stage("failing"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert timer.duration("failing") >= 0.0
        assert "failing" in timer.as_dict()


class TestAccumulateAcrossRestarts:
    """Pin the documented accumulate semantics and the reset() escape hatch.

    Every entry point adds to the named row — a timer reused across a
    restarted run reports the *sum* of both passes. A logically fresh run
    must call reset() (or use a fresh timer) to avoid double-counting.
    """

    def test_record_accumulates_across_restarts(self):
        timer = StageTimer()
        timer.record("transport_solving", 1.0)
        # Simulated restart: the same run records the stage again.
        timer.record("transport_solving", 2.0)
        assert timer.duration("transport_solving") == 3.0
        assert list(timer.as_dict()) == ["transport_solving"]

    def test_stage_and_record_share_one_row(self):
        timer = StageTimer()
        with timer.stage("solve"):
            pass
        timer.record("solve", 1.0)
        assert timer.duration("solve") >= 1.0
        assert list(timer.as_dict()) == ["solve"]

    def test_reset_returns_to_fresh_state(self):
        timer = StageTimer()
        timer.record("a", 1.0)
        timer.record("a/b", 0.5)
        timer.reset()
        assert timer.as_dict() == {}
        assert timer.total == 0.0
        assert timer.duration("a") == 0.0

    def test_reset_then_reuse_does_not_double_count(self):
        timer = StageTimer()
        timer.record("solve", 5.0)
        timer.reset()
        timer.record("solve", 1.0)
        assert timer.duration("solve") == 1.0
        assert timer.total == 1.0

    def test_reset_restores_insertion_order(self):
        timer = StageTimer()
        timer.record("b", 1.0)
        timer.reset()
        timer.record("a", 1.0)
        timer.record("b", 1.0)
        assert list(timer.as_dict()) == ["a", "b"]


class TestMerge:
    def test_from_dict_round_trip(self):
        timer = StageTimer()
        timer.record("sweep", 1.5)
        timer.record("exchange", 0.5)
        rebuilt = StageTimer.from_dict(timer.as_dict())
        assert rebuilt.as_dict() == timer.as_dict()

    def test_sum_accumulates_per_stage(self):
        total = StageTimer()
        for seconds in (1.0, 2.0, 4.0):
            total.merge({"worker_sweep": seconds, "worker_exchange": 0.1})
        assert total.duration("worker_sweep") == 7.0
        assert total.duration("worker_exchange") == pytest.approx(0.3)
        assert list(total.as_dict()) == ["worker_sweep", "worker_exchange"]

    def test_max_keeps_critical_path(self):
        peak = StageTimer()
        for seconds in (1.0, 4.0, 2.0):
            peak.merge({"worker_sweep": seconds}, mode="max")
        assert peak.duration("worker_sweep") == 4.0

    def test_names_not_clobbered(self):
        """Merging never renames or drops stages the target already holds."""
        timer = StageTimer()
        timer.record("solve", 1.0)
        timer.merge({"sweep": 2.0}, mode="max")
        assert timer.as_dict() == {"solve": 1.0, "sweep": 2.0}

    def test_merge_accepts_timer_and_prefix(self):
        worker = StageTimer()
        worker.record("sweep", 2.0)
        parent = StageTimer()
        parent.merge(worker, prefix="transport/")
        assert parent.duration("transport/sweep") == 2.0
        # ``parent/child`` rows stay out of the total by convention.
        assert parent.total == 0.0

    def test_merge_returns_self_for_chaining(self):
        timer = StageTimer()
        assert timer.merge({"a": 1.0}) is timer

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="merge mode"):
            StageTimer().merge({"a": 1.0}, mode="mean")


class TestLogger:
    def test_idempotent_handlers(self):
        a = get_logger("repro.test-idem")
        b = get_logger("repro.test-idem")
        assert a is b
        assert len(a.handlers) == 1

    def test_level_applied(self):
        logger = get_logger("repro.test-level", level="WARNING")
        assert logger.level == 30

    def test_lines_follow_the_current_stderr(self):
        """A redirect made after the logger was built receives its lines,
        and closing an earlier target does not break a later line."""
        logger = get_logger("repro.test-redirect")
        first = io.StringIO()
        with contextlib.redirect_stderr(first):
            logger.warning("first line")
        assert first.getvalue() == "[WARNING] repro.test-redirect: first line\n"
        first.close()
        second = io.StringIO()
        with contextlib.redirect_stderr(second):
            logger.warning("second line")
        assert second.getvalue() == "[WARNING] repro.test-redirect: second line\n"
