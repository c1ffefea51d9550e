"""End-to-end tests for the five-stage ANT-MOC application."""

import pytest

from repro.errors import ConfigError
from repro.io.config import config_from_dict
from repro.runtime import AntMocApplication, StageName


def mini_config(**overrides):
    base = {
        "geometry": "c5g7-mini",
        "tracking": {"num_azim": 4, "azim_spacing": 0.5, "num_polar": 2},
        "solver": {
            "max_iterations": 30,
            "keff_tolerance": 1e-4,
            "source_tolerance": 1e-3,
        },
    }
    base.update(overrides)
    return config_from_dict(base)


class TestSingleDomainRun:
    @pytest.fixture(scope="class")
    def result_app(self):
        app = AntMocApplication(mini_config())
        return app.run(), app

    def test_all_stages_completed(self, result_app):
        result, app = result_app
        assert app.pipeline.finished
        assert result.keff > 0

    def test_timings_recorded(self, result_app):
        result, _ = result_app
        timings = result.timer.as_dict()
        # Top-level stages are exactly the pipeline; "parent/child" rows are
        # per-phase breakdowns (e.g. track_generation/trace2d) on top.
        top_level = {name for name in timings if "/" not in name}
        assert top_level == {s.value for s in StageName}
        assert timings["transport_solving"] > 0
        breakdowns = {name for name in timings if "/" in name}
        assert any(name.startswith("track_generation/") for name in breakdowns), (
            "tracking phase rows missing"
        )
        assert any(name.startswith("transport_solving/") for name in breakdowns), (
            "solver phase rows missing"
        )
        assert all(
            name.startswith(("track_generation/", "transport_solving/"))
            for name in breakdowns
        )

    def test_fission_rates_normalised(self, result_app):
        result, _ = result_app
        positive = result.fission_rates[result.fission_rates > 0]
        assert positive.mean() == pytest.approx(1.0)

    def test_report_text(self, result_app):
        result, _ = result_app
        report = result.report()
        assert "k-effective" in report
        assert "transport_solving" in report

    def test_fission_map_rendering(self, result_app):
        result, app = result_app
        art = app.render_fission_map(result, size=12)
        assert len(art.splitlines()) == 12


class TestDecomposedRun:
    def test_decomposed_pipeline(self):
        config = mini_config(decomposition={"nx": 3, "ny": 3})
        app = AntMocApplication(config)
        result = app.run()
        assert result.decomposed
        assert result.comm_bytes > 0
        assert app.pipeline.finished

    def test_decomposed_close_to_single(self):
        """Decomposition changes the track laydown (each congruent domain
        re-runs the cyclic correction on its own, smaller rectangle), so
        the discretised eigenvalue shifts slightly — the paper's own
        caveat ("there might be differences ... with and without the
        spatial decomposition"). The solutions must stay close."""
        single = AntMocApplication(mini_config(
            solver={"max_iterations": 150, "keff_tolerance": 1e-5,
                    "source_tolerance": 1e-4},
        )).run()
        decomposed = AntMocApplication(mini_config(
            decomposition={"nx": 3, "ny": 3},
            solver={"max_iterations": 150, "keff_tolerance": 1e-5,
                    "source_tolerance": 1e-4},
        )).run()
        assert decomposed.keff == pytest.approx(single.keff, rel=0.05)


class TestOutputs:
    def test_csv_written(self, tmp_path):
        path = tmp_path / "rates.csv"
        config = mini_config(output={"fission_rates_path": str(path)})
        AntMocApplication(config).run()
        assert path.exists()
        assert path.read_text().startswith("fsr,")

    def test_vtk_written(self, tmp_path):
        path = tmp_path / "rates.vtk"
        config = mini_config(output={"vtk_path": str(path)})
        AntMocApplication(config).run()
        assert path.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"decomposition": {"nx": 3, "ny": 1}},
            {
                "geometry": "c5g7-3d-mini",
                "tracking": {"num_azim": 4, "azim_spacing": 0.6,
                             "num_polar": 2, "polar_spacing": 1.0},
            },
        ],
        ids=["2d-decomposed", "3d"],
    )
    def test_vtk_request_is_never_dropped_silently(self, tmp_path, caplog, overrides):
        """A run that cannot render a pin-power map says so, once."""
        path = tmp_path / "rates.vtk"
        quick = {"max_iterations": 2, "keff_tolerance": 1e-4, "source_tolerance": 1e-3}
        app = AntMocApplication(
            mini_config(output={"vtk_path": str(path)}, solver=quick, **overrides)
        )
        # The library logger does not propagate: attach caplog's handler.
        app.logger.addHandler(caplog.handler)
        try:
            app.run()
        finally:
            app.logger.removeHandler(caplog.handler)
        dropped = [r for r in caplog.records if "output dropped" in r.getMessage()]
        assert len(dropped) == 1 and dropped[0].levelname == "WARNING"
        assert dropped[0].name == "repro.antmoc"
        assert f"vtk_path={str(path)!r}" in dropped[0].getMessage()
        assert "reason='pin-power map is single-domain radial only'" in dropped[0].getMessage()
        assert "vtk" not in app.pipeline.artifact(StageName.OUTPUT_GENERATION)
        assert not path.exists()

    def test_unknown_geometry_rejected(self):
        config = mini_config(geometry="c5g7-imaginary")
        with pytest.raises(ConfigError, match="unknown geometry"):
            AntMocApplication(config).run()


class TestConfigFile:
    def test_from_config_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "geometry: c5g7-mini\n"
            "tracking:\n  num_azim: 4\n  azim_spacing: 0.5\n  num_polar: 2\n"
            "solver:\n  max_iterations: 10\n"
            "  keff_tolerance: 1.0e-3\n  source_tolerance: 1.0e-2\n"
        )
        app = AntMocApplication.from_config_file(path)
        result = app.run()
        assert result.keff > 0
