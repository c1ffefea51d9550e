"""Scenario batches through the solve service: per-state cache reuse."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.serve.jobs import JobState
from repro.serve.service import ServeOptions, SolveService

from tests.scenario.conftest import batch_config


@pytest.fixture()
def service():
    with SolveService(ServeOptions(solver_threads=1)) as svc:
        yield svc


class TestBatchJobs:
    def test_batch_solves_and_answers_with_the_first_state(self, service):
        cfg = batch_config()
        job = service.solve(cfg)
        assert job.state is JobState.DONE and not job.cache_hit
        report = job.report
        assert report.counters.to_dict()["scenarios_total"] == 4
        # The response report carries the first state's identity.
        from repro.scenario import state_config_hash

        assert report.manifest.config_hash == state_config_hash(
            cfg, cfg.scenarios[0]
        )

    def test_exact_batch_repeat_is_a_cache_hit(self, service):
        cfg = batch_config()
        first = service.solve(cfg)
        repeat = service.solve(cfg)
        assert repeat.cache_hit
        assert np.array_equal(first.scalar_flux, repeat.scalar_flux)

    def test_single_state_request_hits_the_batch_entry(self, service):
        """A later request for ONE branch of an earlier batch is answered
        from the per-state cache without sweeping."""
        cfg = batch_config()
        service.solve(cfg)
        for index in range(len(cfg.scenarios)):
            single = dataclasses.replace(cfg, scenarios=(cfg.scenarios[index],))
            job = service.solve(single)
            assert job.cache_hit, cfg.scenarios[index].name

    def test_state_order_does_not_matter_for_reuse(self, service):
        """The per-state hash ignores the batch composition: the same
        branch inside a different batch still reuses the cached state."""
        cfg = batch_config()
        service.solve(cfg)
        reordered = dataclasses.replace(
            cfg, scenarios=(cfg.scenarios[2],)
        )
        assert service.solve(reordered).cache_hit

    def test_single_state_miss_solves_a_batch_of_one(self, service):
        from tests.scenario.conftest import FOUR_STATES

        cfg = batch_config(scenarios=[FOUR_STATES[1]])
        job = service.solve(dataclasses.replace(cfg))
        assert job.state is JobState.DONE and not job.cache_hit
        counters = job.report.counters.to_dict()
        assert counters["scenarios_total"] == 1
        assert counters["laydowns_shared"] == 0

    def test_stage_order_is_tracing_then_sweeping(self, service):
        """The batch stage hook announces each lifecycle stage exactly
        once, in pipeline order — enforced by the job transition table
        (an out-of-order or repeated announcement raises ServeError and
        fails the job)."""
        transitions = []
        cfg = batch_config()
        job = service.submit(cfg)
        original = type(job).transition

        def recording(self, new_state):
            transitions.append(new_state)
            original(self, new_state)

        # Too late to observe this job; watch a second one instead.
        import unittest.mock as mock

        job.wait(None)
        with mock.patch.object(type(job), "transition", recording):
            cfg2 = batch_config(
                scenarios=[
                    {"name": "other", "perturbations": [
                        {"kind": "density", "material": "Moderator", "factor": 0.97}
                    ]},
                    {"name": "nominal2", "perturbations": []},
                ]
            )
            fresh = service.solve(cfg2)
        assert fresh.state is JobState.DONE and not fresh.cache_hit
        stages = [s for s in transitions if s in (JobState.TRACING, JobState.SWEEPING)]
        assert stages == [JobState.TRACING, JobState.SWEEPING]

    def test_served_batch_is_bitwise_equal_to_a_local_run(self, service):
        from repro.scenario import run_scenario_batch

        cfg = batch_config()
        local = run_scenario_batch(cfg)
        job = service.solve(cfg)
        first = local.states[0]
        assert float(job.report.results.keff).hex() == float(first.keff).hex()
        assert np.array_equal(job.scalar_flux, first.scalar_flux)

    def test_served_states_say_which_share_solved_them(self, service):
        """A solve slot is a non-daemon process, so a batch inside it fans
        out over the slot's CPUs; every state's cached report — read back
        through single-state hits — carries how the batch was cut."""
        import os

        from repro.scenario.batch import _cut_shares
        from tests.scenario.conftest import FOUR_STATES

        cfg = batch_config(scenarios=FOUR_STATES[:3])
        assert not service.solve(cfg).cache_hit
        num_shares = min(3, len(os.sched_getaffinity(0)))
        expected = [
            index
            for index, (lo, hi) in enumerate(_cut_shares(3, num_shares))
            for _ in range(lo, hi)
        ]
        for scenario, share in zip(cfg.scenarios, expected):
            hit = service.solve(dataclasses.replace(cfg, scenarios=(scenario,)))
            assert hit.cache_hit, scenario.name
            counters = hit.report.counters.to_dict()
            assert counters["scenario_shares"] == num_shares, scenario.name
            assert counters["scenario_share"] == share, scenario.name
