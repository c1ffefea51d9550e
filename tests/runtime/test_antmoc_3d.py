"""End-to-end 3D runs through the application pipeline."""

import pytest

from repro.errors import ConfigError
from repro.io.config import config_from_dict
from repro.runtime import AntMocApplication


def config_3d(**overrides):
    base = {
        "geometry": "c5g7-3d-mini",
        "tracking": {
            "num_azim": 4, "azim_spacing": 0.6,
            "num_polar": 2, "polar_spacing": 1.0,
        },
        "solver": {
            "max_iterations": 40,
            "keff_tolerance": 1e-4,
            "source_tolerance": 1e-3,
            "storage_method": "EXP",
        },
    }
    base.update(overrides)
    return config_from_dict(base)


class TestSingleDomain3D:
    @pytest.fixture(scope="class")
    def result(self):
        return AntMocApplication(config_3d()).run()

    def test_runs_to_completion(self, result):
        assert result.keff > 0
        assert not result.decomposed
        assert result.scalar_flux.shape[1] == 7

    def test_fission_rates_only_in_fuel_layers(self, result):
        positive = result.fission_rates[result.fission_rates > 0]
        assert positive.size > 0
        assert positive.mean() == pytest.approx(1.0)

    def test_stage_timings_present(self, result):
        assert result.timer.duration("transport_solving") > 0


class TestDecomposed3D:
    def test_z_decomposed_run(self):
        result = AntMocApplication(
            config_3d(decomposition={"nz": 2})
        ).run()
        assert result.decomposed
        assert result.comm_bytes > 0

    @staticmethod
    def _override_warnings(caplog, **overrides):
        """Run and return the storage-override WARNINGs (the library
        logger does not propagate, so caplog's handler is attached)."""
        app = AntMocApplication(config_3d(**overrides))
        app.logger.addHandler(caplog.handler)
        try:
            app.run()
        finally:
            app.logger.removeHandler(caplog.handler)
        return [
            r.getMessage() for r in caplog.records
            if r.levelname == "WARNING" and "storage strategy override" in r.getMessage()
        ]

    def test_ignored_storage_method_is_reported_once(self, caplog):
        quick = {"max_iterations": 2, "keff_tolerance": 1e-4, "source_tolerance": 1e-3}
        messages = self._override_warnings(
            caplog, decomposition={"nz": 2}, solver={**quick, "storage_method": "MANAGER"}
        )
        assert len(messages) == 1
        assert "requested='MANAGER'" in messages[0] and "effective='EXP'" in messages[0]

    def test_no_override_report_when_nothing_is_overridden(self, caplog):
        quick = {"max_iterations": 2, "keff_tolerance": 1e-4, "source_tolerance": 1e-3}
        assert not self._override_warnings(
            caplog, decomposition={"nz": 2}, solver={**quick, "storage_method": "EXP"}
        )
        assert not self._override_warnings(
            caplog, solver={**quick, "storage_method": "MANAGER"}
        )

    @pytest.mark.slow
    def test_z_decomposed_matches_single(self):
        single = AntMocApplication(config_3d(
            solver={"max_iterations": 80, "keff_tolerance": 1e-5,
                    "source_tolerance": 1e-4, "storage_method": "EXP"},
        )).run()
        decomposed = AntMocApplication(config_3d(
            decomposition={"nz": 2},
            solver={"max_iterations": 80, "keff_tolerance": 1e-5,
                    "source_tolerance": 1e-4},
        )).run()
        assert decomposed.keff == pytest.approx(single.keff, rel=5e-3)

    def test_radial_decomposition_rejected_for_3d(self):
        with pytest.raises(ConfigError, match="axially"):
            AntMocApplication(config_3d(decomposition={"nx": 2})).run()

    @pytest.mark.slow
    @pytest.mark.parametrize("storage", ["OTF", "MANAGER", "CCM"])
    def test_storage_methods_via_config(self, storage):
        result = AntMocApplication(config_3d(
            solver={"max_iterations": 10, "keff_tolerance": 1e-4,
                    "source_tolerance": 1e-3, "storage_method": storage},
        )).run()
        assert result.keff > 0

    def test_csv_output_3d(self, tmp_path):
        path = tmp_path / "rates3d.csv"
        AntMocApplication(config_3d(
            output={"fission_rates_path": str(path)},
            solver={"max_iterations": 10, "keff_tolerance": 1e-4,
                    "source_tolerance": 1e-3, "storage_method": "EXP"},
        )).run()
        assert path.exists()
