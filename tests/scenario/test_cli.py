"""The ``solve-batch`` CLI verb."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io.config import load_config
from repro.scenario import run_scenario_batch

CONFIG = """\
geometry: c5g7-mini
tracking:
  num_azim: 4
  num_polar: 2
  azim_spacing: 0.5
solver:
  max_iterations: 5
  keff_tolerance: 1.0e-14
  source_tolerance: 1.0e-14
  sweep_backend: numpy
scenarios:
  - {name: nominal, perturbations: []}
  - {name: fission-95, perturbations: [{kind: scale_xs, material: UO2, reaction: fission, factor: 0.95}]}
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "batch.yaml"
    path.write_text(CONFIG)
    return str(path)


class TestSolveBatch:
    def test_prints_one_line_per_state(self, config_path, capsys):
        code = main(["solve-batch", "--config", config_path])
        out = capsys.readouterr().out
        assert code == 2  # deliberately unconverged (tolerances at 1e-14)
        assert "2 state(s), sequential sweeps" in out
        assert "nominal" in out and "fission-95" in out
        # The widened kernel prints the same lines under its own header.
        widened = run_scenario_batch(load_config(config_path), mode="batched").report()
        assert "2 state(s), batched sweeps" in widened
        assert widened.splitlines()[1:] == out.splitlines()[1:3]

    def test_report_dir_writes_one_report_per_state(self, config_path, tmp_path):
        directory = tmp_path / "reports"
        main(
            ["solve-batch", "--config", config_path, "--report-dir", str(directory)]
        )
        names = sorted(p.name for p in directory.glob("*.json"))
        assert names == ["fission-95.json", "nominal.json"]
        payload = json.loads((directory / "fission-95.json").read_text())
        assert payload["results"]["keff"] > 0
        assert payload["counters"]["scenarios_total"] == 2

    def test_serial_reports_are_bitwise_equal_to_batched(
        self, config_path, tmp_path
    ):
        """The CLI solves state by state; its reports carry the widened
        kernel's bits."""
        serial_dir = tmp_path / "s"
        main(["solve-batch", "--config", config_path, "--report-dir", str(serial_dir)])
        batch = run_scenario_batch(load_config(config_path), mode="batched")
        for state in batch.states:
            batched = state.run_report.to_dict()
            serial = json.loads((serial_dir / f"{state.scenario.name}.json").read_text())
            assert batched["results"]["keff_hex"] == serial["results"]["keff_hex"]

    def test_scenario_config_through_the_plain_verb_fails_loudly(
        self, config_path, capsys
    ):
        code = main(["--config", config_path])
        assert code == 1
        assert "solve-batch" in capsys.readouterr().err

    def test_missing_scenarios_block_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "plain.yaml"
        path.write_text("geometry: c5g7-mini\n")
        code = main(["solve-batch", "--config", str(path)])
        assert code == 1
        assert "scenarios" in capsys.readouterr().err
