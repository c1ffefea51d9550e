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

    def test_decomposed_storage_method_is_honoured(self, caplog):
        """``solver.storage_method`` means at ``nz = 2`` what it means at
        ``nz = 1``: nothing is overridden, nothing is warned about, and
        the answer does not depend on it. (The library logger does not
        propagate, so caplog's handler is attached.)"""
        quick = {"max_iterations": 2, "keff_tolerance": 1e-4, "source_tolerance": 1e-3}
        results = {}
        for storage in ("EXP", "OTF"):
            app = AntMocApplication(config_3d(
                decomposition={"nz": 2}, solver={**quick, "storage_method": storage}
            ))
            app.logger.addHandler(caplog.handler)
            try:
                results[storage] = app.run()
            finally:
                app.logger.removeHandler(caplog.handler)
        assert not [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert results["OTF"].keff.hex() == results["EXP"].keff.hex()
        counters = {s: r.run_report.counters for s, r in results.items()}
        assert counters["EXP"]["tracks_3d_regenerated"] == 0
        assert counters["OTF"]["tracks_3d_resident"] == 0
        assert counters["OTF"]["tracks_3d_regenerated"] == 2 * counters["OTF"]["tracks_3d"]

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
