"""The shm race sanitizer: clean audits stay bitwise, injected faults fire.

Five claims pinned here (that the engines audited are the shipped worker
loops themselves is ``test_one_worker_loop.py``'s):

1. ``mp-sanitize`` on the 2D pin lattice reports **zero** race events and
   is bitwise identical to ``inproc`` — instrumentation must not perturb
   the schedule or the numbers;
2. the seeded barrier-skip fault injection makes the detector fire —
   both the same-epoch-overlap and the unpublished-read rule;
3. the epoch analysis itself behaves on hand-built event logs, so the
   detector's semantics are testable without spawning processes;
4. the same detector proves the *relaxed* mailbox/epoch protocol of
   ``mp-async`` race-free (``mp-async-sanitize`` clean + bitwise), while a
   wrong-parity mailbox fault — reading the halo buffer the producers are
   currently writing — trips both rules;
5. an audit can fail: findings on a run nobody injected a fault into
   raise ``SanitizerError``; a seeded fault site is drawn per solve.
"""

import numpy as np
import pytest

from repro.engine import (
    FaultSpec,
    SanitizedAsyncMpEngine,
    SanitizedMpEngine,
    analyze_events,
)
from repro.engine.registry import resolve_engine
from repro.engine.sanitize import AccessEvent
from repro.errors import SanitizerError
from tests.engine.test_equivalence import extruded, pin_lattice, solve_2d, solve_3d

__all__ = ["pin_lattice"]  # re-exported fixture


def ev(worker, epoch, kind, array, *indices):
    return AccessEvent(
        worker=worker, epoch=epoch, kind=kind, array=array, indices=indices
    )


class TestAnalyzer:
    """Detector semantics on synthetic logs — no processes involved."""

    def test_disjoint_same_epoch_writes_are_clean(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "phi_new", 0, 1)],
            1: [ev(1, 1, "w", "phi_new", 2, 3)],
        })
        assert report.clean
        assert report.num_events == 2
        assert report.num_workers == 2

    def test_cross_worker_write_write_overlap_flagged(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "phi_new", 0, 1)],
            1: [ev(1, 1, "w", "phi_new", 1, 2)],
        })
        assert [f.rule for f in report.findings] == ["same-epoch-overlap"]
        assert report.findings[0].workers == (0, 1)
        assert 1 in report.findings[0].indices

    def test_cross_worker_write_read_overlap_flagged(self):
        report = analyze_events({
            0: [ev(0, 3, "w", "halo", 5)],
            1: [ev(1, 3, "r", "halo", 5)],
        })
        assert "same-epoch-overlap" in {f.rule for f in report.findings}

    def test_same_worker_overlap_is_fine(self):
        report = analyze_events({0: [ev(0, 1, "w", "phi", 0), ev(0, 1, "r", "phi", 0)]})
        assert report.clean

    def test_different_epochs_do_not_conflict(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "phi_new", 0)],
            1: [ev(1, 2, "w", "phi_new", 0)],
        })
        assert report.clean

    def test_halo_read_of_unpublished_slot_flagged(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "halo", 0)],
            1: [ev(1, 2, "r", "halo", 0, 7)],
        })
        assert [f.rule for f in report.findings] == ["unpublished-read"]
        assert report.findings[0].indices == (7,)

    def test_halo_read_of_published_slot_clean(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "halo", 0, 1)],
            1: [ev(1, 2, "r", "halo", 0)],
        })
        assert report.clean

    def test_report_renders_fault_and_findings(self):
        fault = FaultSpec(worker=1)
        report = analyze_events(
            {0: [ev(0, 1, "w", "halo", 0)], 1: [ev(1, 1, "w", "halo", 0)]},
            fault=fault,
        )
        text = report.render()
        assert "1 finding(s)" in text
        assert "same-epoch-overlap" in text
        assert "worker=1" in text


class TestFaultSpec:
    def test_from_seed_is_deterministic(self):
        a = FaultSpec.from_seed(1234, 4)
        b = FaultSpec.from_seed(1234, 4)
        assert a == b
        assert 0 <= a.worker < 4
        assert a.iteration == 0

    def test_fault_and_seed_are_mutually_exclusive(self):
        with pytest.raises(SanitizerError, match="not both"):
            SanitizedMpEngine(workers=2, fault_seed=1, fault=FaultSpec(worker=0))

    def test_fault_worker_out_of_range_rejected(self, pin_lattice):
        engine = SanitizedMpEngine(workers=2, fault=FaultSpec(worker=7))
        with pytest.raises(SanitizerError, match="worker 7"):
            solve_2d(pin_lattice, engine, workers=2)


    def test_seeded_site_is_drawn_per_solve(self, pin_lattice):
        """One engine, two worker counts: the second solve's site comes
        from its own worker count, not from the first solve's draw."""
        assert FaultSpec.from_seed(1234, 4).worker >= 2  # no such worker of 2
        engine = SanitizedMpEngine(fault_seed=1234)
        _, four = solve_2d(pin_lattice, engine)
        engine.workers = 2
        _, two = solve_2d(pin_lattice, engine)
        assert four.sanitizer.fault == FaultSpec.from_seed(1234, 4)
        assert two.sanitizer.fault == FaultSpec.from_seed(1234, 2)
        assert not four.sanitizer.clean and not two.sanitizer.clean


class TestAuditVerdict:
    """The engines' payload-folding step on hand-built logs — no processes."""

    OVERLAPPING = {
        0: [ev(0, 1, "w", "phi_new", 0, 1)],
        1: [ev(1, 1, "w", "phi_new", 1, 2)],
    }

    @pytest.mark.parametrize("cls", [SanitizedMpEngine, SanitizedAsyncMpEngine])
    def test_findings_nobody_injected_fail_the_run(self, cls):
        with pytest.raises(SanitizerError, match="same-epoch-overlap"):
            cls(workers=2)._result_extras({"events": self.OVERLAPPING}, 2)

    def test_findings_of_an_injected_fault_are_returned(self):
        engine = SanitizedMpEngine(workers=2, fault=FaultSpec(worker=0))
        extras = engine._result_extras({"events": self.OVERLAPPING}, 2)
        assert not extras["sanitizer"].clean
        assert extras["comm_counters"] == {
            "sanitizer_events": 2, "sanitizer_findings": 1
        }


class TestRegistry:
    def test_mp_sanitize_resolves_by_name(self):
        engine = resolve_engine("mp-sanitize")
        assert isinstance(engine, SanitizedMpEngine)
        assert engine.name == "mp-sanitize"

    def test_mp_async_sanitize_resolves_by_name(self):
        engine = resolve_engine("mp-async-sanitize")
        assert isinstance(engine, SanitizedAsyncMpEngine)
        assert engine.name == "mp-async-sanitize"


class TestCleanAudit:
    def test_pin_lattice_clean_and_bitwise(self, pin_lattice):
        """Acceptance: zero race events flagged, bitwise equal to inproc."""
        oracle_solver, oracle = solve_2d(pin_lattice, "inproc")
        solver, result = solve_2d(pin_lattice, "mp-sanitize")
        assert result.engine == "mp-sanitize"
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.num_iterations == oracle.num_iterations
        report = result.sanitizer
        assert report is not None
        assert report.clean, report.render()
        assert report.num_events > 0
        assert report.fault is None

    def test_axial_3d_clean_and_bitwise(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=4)
        _, oracle = solve_3d(g3, "inproc", num_domains=4)
        _, result = solve_3d(g3, "mp-sanitize", num_domains=4, workers=2)
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.sanitizer.clean, result.sanitizer.render()


class TestFaultInjection:
    def test_barrier_skip_fires_detector(self, pin_lattice):
        """Acceptance: the seeded fault (skipped barrier) is flagged."""
        engine = SanitizedMpEngine(workers=2, fault_seed=1234)
        _, result = solve_2d(pin_lattice, engine, workers=2)
        report = result.sanitizer
        assert not report.clean
        rules = {f.rule for f in report.findings}
        assert "same-epoch-overlap" in rules
        assert "unpublished-read" in rules
        assert report.fault is not None
        assert report.fault == FaultSpec.from_seed(1234, 2)

    def test_explicit_fault_site_fires(self, pin_lattice):
        engine = SanitizedMpEngine(workers=2, fault=FaultSpec(worker=0, iteration=0))
        _, result = solve_2d(pin_lattice, engine, workers=2)
        assert not result.sanitizer.clean

    def test_fault_does_not_deadlock_and_reports_fault_site(self, pin_lattice):
        """The compensating wait keeps barrier parity: the run terminates
        and the report carries the injected fault site."""
        fault = FaultSpec(worker=1, iteration=0)
        engine = SanitizedMpEngine(workers=2, fault=fault)
        _, result = solve_2d(pin_lattice, engine, workers=2)
        assert result.sanitizer.fault == fault


class TestAsyncCleanAudit:
    """The mailbox/epoch protocol of ``mp-async`` proven race-free."""

    def test_pin_lattice_clean_and_bitwise(self, pin_lattice):
        """Acceptance: the relaxed protocol (no global barriers, seqlock
        mailbox publishes) logs zero findings and stays bitwise."""
        _, oracle = solve_2d(pin_lattice, "inproc")
        _, result = solve_2d(pin_lattice, "mp-async-sanitize")
        assert result.engine == "mp-async-sanitize"
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.num_iterations == oracle.num_iterations
        report = result.sanitizer
        assert report is not None
        assert report.clean, report.render()
        assert report.num_events > 0
        assert report.fault is None
        # The instrumented run still reports the protocol counters.
        assert set(result.comm_counters) >= {
            "halo_wait_ns", "neighbor_stalls", "epochs_overlapped"
        }

    def test_axial_3d_clean_and_bitwise(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=4)
        _, oracle = solve_3d(g3, "inproc", num_domains=4)
        _, result = solve_3d(g3, "mp-async-sanitize", num_domains=4, workers=2)
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.sanitizer.clean, result.sanitizer.render()


class TestAsyncFaultInjection:
    """Negative control: a wrong-parity unpack must trip both detectors."""

    def test_wrong_parity_unpack_fires_both_rules(self, pin_lattice):
        engine = SanitizedAsyncMpEngine(
            workers=2, fault=FaultSpec(worker=0, iteration=1)
        )
        _, result = solve_2d(pin_lattice, engine, workers=2)
        report = result.sanitizer
        assert not report.clean
        rules = {f.rule for f in report.findings}
        assert "same-epoch-overlap" in rules
        assert "unpublished-read" in rules
        assert report.fault == FaultSpec(worker=0, iteration=1)

    def test_seeded_fault_lands_on_halo_iteration(self, pin_lattice):
        """A seed always maps to iteration 1 — iteration 0 reads no halo,
        so a seeded fault there would be a vacuous negative control."""
        engine = SanitizedAsyncMpEngine(workers=2, fault_seed=1234)
        _, result = solve_2d(pin_lattice, engine, workers=2)
        report = result.sanitizer
        assert not report.clean
        assert report.fault.iteration == 1
        assert report.fault.worker == FaultSpec.from_seed(1234, 2).worker

    def test_iteration_zero_fault_rejected(self, pin_lattice):
        engine = SanitizedAsyncMpEngine(
            workers=2, fault=FaultSpec(worker=0, iteration=0)
        )
        with pytest.raises(SanitizerError, match="iteration 0 consumes no halo"):
            solve_2d(pin_lattice, engine, workers=2)

    def test_fault_worker_out_of_range_rejected(self, pin_lattice):
        engine = SanitizedAsyncMpEngine(workers=2, fault=FaultSpec(worker=7, iteration=1))
        with pytest.raises(SanitizerError, match="worker 7"):
            solve_2d(pin_lattice, engine, workers=2)

    def test_fault_and_seed_are_mutually_exclusive(self):
        with pytest.raises(SanitizerError, match="not both"):
            SanitizedAsyncMpEngine(
                workers=2, fault_seed=1, fault=FaultSpec(worker=0, iteration=1)
            )


@pytest.mark.slow
class TestC5G7Audit:
    @pytest.mark.parametrize("engine", ["mp-sanitize", "mp-async-sanitize"])
    def test_c5g7_coarse_clean_and_bitwise(self, engine):
        """The paper's benchmark, coarse: both sanitizers must stay silent
        and bitwise on full C5G7 3D heterogeneity over a z decomposition."""
        from repro.geometry.c5g7 import C5G7Spec, build_c5g7_3d
        from repro.materials.c5g7 import c5g7_library

        def build():
            return build_c5g7_3d(
                c5g7_library(),
                C5G7Spec(
                    pins_per_assembly=3, reflector_refinement=2,
                    fuel_layers=2, reflector_layers=2,
                ),
            )

        _, oracle = solve_3d(build(), "inproc", max_iterations=6)
        _, result = solve_3d(build(), engine, max_iterations=6)
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.sanitizer.clean, result.sanitizer.render()
