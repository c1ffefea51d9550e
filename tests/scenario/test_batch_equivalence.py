"""The scenario-batch equivalence oracle: batched == N independent solves.

The acceptance gate of the batching subsystem: a 4-state perturbation
batch on c5g7-mini must be bitwise-equal per state — k-eff through
``float.hex``, group flux and fission rates through ``array_equal`` — to
four completely independent solves, while tracing tracks exactly once.
Covered on the single-domain path (state by state, the default, and the
widened kernel of ``mode="batched"``), the inproc decomposed path and
the mp-async decomposed path (both rebind-based).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, ScenarioError
from repro.io.config import config_from_dict
from repro.parallel.driver import DecomposedSolver
from repro.runtime.antmoc import GEOMETRY_BUILDERS, AntMocApplication
from repro.scenario import run_scenario_batch, scenario_materials
from repro.scenario.batch import _scenario_library
from repro.solver.solver import MOCSolver
from repro.tracks import TrackGenerator

from tests.scenario.conftest import batch_config


def assert_states_equal(state, keff, flux, rates):
    __tracebackhide__ = True
    assert float(state.keff).hex() == float(keff).hex(), state.scenario.name
    assert np.array_equal(state.scalar_flux, flux), state.scenario.name
    assert np.array_equal(state.fission_rates, rates), state.scenario.name


def independent_single_domain(cfg):
    """Oracle: one fresh MOCSolver (own laydown) per scenario state."""
    geometry = GEOMETRY_BUILDERS[cfg.geometry]()
    library = _scenario_library(geometry)
    out = []
    for scenario in cfg.scenarios:
        solver = MOCSolver.for_2d(
            GEOMETRY_BUILDERS[cfg.geometry](),
            num_azim=cfg.tracking.num_azim,
            azim_spacing=cfg.tracking.azim_spacing,
            num_polar=cfg.tracking.num_polar,
            keff_tolerance=cfg.solver.keff_tolerance,
            source_tolerance=cfg.solver.source_tolerance,
            max_iterations=cfg.solver.max_iterations,
            backend="numpy",
            cmfd=cfg.solver.cmfd if cfg.solver.cmfd.enabled else None,
            materials=scenario_materials(
                GEOMETRY_BUILDERS[cfg.geometry]().fsr_materials, scenario, library
            ),
        )
        result = solver.solve()
        out.append((result.keff, result.scalar_flux, solver.fission_rates(result)))
    return out


class TestSingleDomain:
    def test_batched_matches_independent_solves(self, four_state_config):
        batch = run_scenario_batch(four_state_config, mode="batched")
        assert batch.batched
        oracle = independent_single_domain(four_state_config)
        for state, (keff, flux, rates) in zip(batch.states, oracle):
            assert_states_equal(state, keff, flux, rates)

    def test_sequential_fallback_matches_batched(self, four_state_config):
        batched = run_scenario_batch(four_state_config, mode="batched")
        serial = run_scenario_batch(four_state_config)
        assert batched.batched and not serial.batched
        for b, s in zip(batched.states, serial.states):
            assert_states_equal(b, s.keff, s.scalar_flux, s.fission_rates)

    def test_cmfd_accelerated_batch_matches_independent(self):
        cfg = batch_config(solver={"cmfd": {"enabled": True}, "max_iterations": 8})
        batch = run_scenario_batch(cfg, mode="batched")
        assert batch.batched
        for state, (keff, flux, rates) in zip(
            batch.states, independent_single_domain(cfg)
        ):
            assert_states_equal(state, keff, flux, rates)

    def test_states_may_converge_at_different_iterations(self):
        cfg = batch_config(
            solver={
                "cmfd": {"enabled": True},
                "max_iterations": 200,
                "keff_tolerance": 1e-5,
                "source_tolerance": 1e-4,
            }
        )
        batch = run_scenario_batch(cfg)
        iterations = [s.num_iterations for s in batch.states]
        assert all(s.converged for s in batch.states)
        assert len(set(iterations)) > 1, iterations
        # Late-converging states still match their independent solves.
        for state, (keff, flux, rates) in zip(
            batch.states, independent_single_domain(cfg)
        ):
            assert_states_equal(state, keff, flux, rates)

    def test_traces_tracks_exactly_once(self, four_state_config, monkeypatch):
        calls = []
        original = TrackGenerator.generate

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TrackGenerator, "generate", counting)
        run_scenario_batch(four_state_config)
        assert len(calls) == 1

    def test_laydown_sharing_counters(self, four_state_config):
        batch = run_scenario_batch(four_state_config, mode="batched")
        for state in batch.states:
            counters = state.run_report.counters.to_dict()
            assert counters["scenarios_total"] == 4
            assert counters["scenarios_batched"] == 4
            assert counters["laydowns_shared"] == 3
            assert counters["sweeps_batched"] == batch.num_sweeps > 0

    def test_sequential_mode_reports_zero_batched(self, four_state_config):
        batch = run_scenario_batch(four_state_config)
        counters = batch.states[0].run_report.counters.to_dict()
        assert counters["scenarios_batched"] == 0
        assert counters["sweeps_batched"] == 0
        assert counters["laydowns_shared"] == 3


class TestDecomposed:
    def decomposed_config(self, engine):
        return batch_config(decomposition={"nx": 3, "ny": 1, "engine": engine})

    def independent(self, cfg):
        """Oracle: one fresh DecomposedSolver per state."""
        out = []
        for scenario in cfg.scenarios:
            geometry = GEOMETRY_BUILDERS[cfg.geometry]()
            library = _scenario_library(geometry)
            solver = DecomposedSolver(
                geometry,
                cfg.decomposition.nx,
                cfg.decomposition.ny,
                num_azim=cfg.tracking.num_azim,
                azim_spacing=cfg.tracking.azim_spacing,
                num_polar=cfg.tracking.num_polar,
                keff_tolerance=cfg.solver.keff_tolerance,
                source_tolerance=cfg.solver.source_tolerance,
                max_iterations=cfg.solver.max_iterations,
                backend="numpy",
                engine=cfg.decomposition.engine,
            )
            solver.rebind_materials(
                lambda sub, _s=scenario: scenario_materials(
                    sub.fsr_materials, _s, library, require_match=False
                )
            )
            result = solver.solve()
            out.append(
                (result.keff, result.scalar_flux, solver.fission_rates(result))
            )
        return out

    def test_inproc_batch_matches_independent(self):
        cfg = self.decomposed_config("inproc")
        batch = run_scenario_batch(cfg)
        assert not batch.batched  # decomposed always runs the fallback
        for state, (keff, flux, rates) in zip(batch.states, self.independent(cfg)):
            assert_states_equal(state, keff, flux, rates)

    def test_mp_async_batch_matches_independent(self):
        cfg = self.decomposed_config("mp-async")
        batch = run_scenario_batch(cfg)
        for state, (keff, flux, rates) in zip(batch.states, self.independent(cfg)):
            assert_states_equal(state, keff, flux, rates)

    def test_mp_async_matches_inproc_batch(self):
        inproc = run_scenario_batch(self.decomposed_config("inproc"))
        mp = run_scenario_batch(self.decomposed_config("mp-async"))
        for a, b in zip(inproc.states, mp.states):
            assert_states_equal(a, b.keff, b.scalar_flux, b.fission_rates)

    def test_mp_async_state_reports_have_the_single_run_shape(self):
        """A batch state is recorded by the same calls as a single-state
        run of the same state: same stage rows (worker ``_sum``/``_max``
        included), same span roots (``workers`` included), same counters
        but for the four batch-only ones."""
        cfg = self.decomposed_config("mp-async")
        batch = run_scenario_batch(cfg)
        single = AntMocApplication(dataclasses.replace(cfg, scenarios=())).run().run_report
        batch_only = {
            "scenarios_total", "scenarios_batched", "laydowns_shared", "sweeps_batched",
        }
        assert any(name.endswith("worker_sweep_max") for name in single.stages)
        for state in batch.states:
            report = state.run_report
            assert set(report.stages) == set(single.stages), state.scenario.name
            assert {s.name for s in report.spans} == {s.name for s in single.spans}
            assert set(report.counters.to_dict()) - batch_only == set(
                single.counters.to_dict()
            )

    def test_rebind_nominal_matches_fresh_solver(self):
        """Rebinding to the unperturbed materials reproduces a freshly
        constructed solver bitwise — rebind adds nothing of its own."""
        cfg = self.decomposed_config("inproc")
        batch = run_scenario_batch(cfg)
        geometry = GEOMETRY_BUILDERS[cfg.geometry]()
        fresh = DecomposedSolver(
            geometry, 3, 1,
            num_azim=cfg.tracking.num_azim,
            azim_spacing=cfg.tracking.azim_spacing,
            num_polar=cfg.tracking.num_polar,
            keff_tolerance=cfg.solver.keff_tolerance,
            source_tolerance=cfg.solver.source_tolerance,
            max_iterations=cfg.solver.max_iterations,
            backend="numpy",
            engine="inproc",
        )
        result = fresh.solve()
        assert_states_equal(
            batch.state("nominal"),
            result.keff, result.scalar_flux, fresh.fission_rates(result),
        )

    def test_comm_counters_are_per_state_deltas(self):
        batch = run_scenario_batch(self.decomposed_config("inproc"))
        counts = [s.run_report.counters.to_dict() for s in batch.states]
        # Every state exchanged its own halo traffic; the cumulative
        # communicator stats must not leak into later states.
        assert all(c["halo_bytes"] > 0 for c in counts)
        assert len({c["halo_bytes"] for c in counts}) <= 2  # same laydown
        assert counts[0]["halo_bytes"] == counts[-1]["halo_bytes"]

    def test_batched_mode_is_refused_for_decomposed(self):
        with pytest.raises(ScenarioError, match="single-domain"):
            run_scenario_batch(self.decomposed_config("inproc"), mode="batched")


class TestGuards:
    def test_plain_run_rejects_scenario_configs(self, four_state_config):
        with pytest.raises(ConfigError, match="solve-batch"):
            AntMocApplication(four_state_config).run()

    def test_batch_requires_scenarios(self):
        cfg = config_from_dict({"geometry": "c5g7-mini"})
        with pytest.raises(ConfigError, match="non-empty"):
            run_scenario_batch(cfg)

    def test_batched_mode_requires_numpy_backend(self):
        cfg = batch_config(solver={"sweep_backend": "reference"})
        with pytest.raises(ScenarioError, match="numpy"):
            run_scenario_batch(cfg, mode="batched")

    def test_3d_geometry_is_refused(self):
        cfg = config_from_dict(
            {
                "geometry": "c5g7-3d-mini",
                "tracking": {
                    "num_azim": 4, "azim_spacing": 0.6,
                    "num_polar": 2, "polar_spacing": 1.0,
                },
                "scenarios": [{"name": "a", "perturbations": []}],
            }
        )
        with pytest.raises(ConfigError, match="2D"):
            run_scenario_batch(cfg)

    def test_batch_manifest_reaches_the_reports(self, four_state_config):
        batch = run_scenario_batch(four_state_config)
        hashes = [s["state_hash"] for s in batch.manifest["states"]]
        assert len(set(hashes)) == 4
        for state, expected in zip(batch.states, hashes):
            assert state.state_hash == expected
            assert state.run_report.manifest.config_hash == expected
        base = dataclasses.replace(four_state_config, scenarios=())
        from repro.observability.manifest import config_hash

        assert batch.parent_hash == config_hash(base.to_dict())
