"""The config is the whole input of a solve.

``REPRO_CMFD``, ``REPRO_SWEEP_BACKEND``, ``REPRO_TRACER``,
``REPRO_ENGINE``, ``REPRO_ENGINE_TIMEOUT`` and ``REPRO_REPORT`` once sat
under the CLI and the config as a third source of settings, and the first
five changed a solve's numbers without its manifest showing it. With all
six set to non-default values, a CLI run must return the clean
environment's bits, iteration count, ``config_hash`` and manifest, its
manifest must name the engine and backend that ran, and no report
file may appear unless the CLI or the config asks for one.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.observability.exporters import load_report

#: Non-default values for every retired variable but ``REPRO_REPORT``
#: (which each test points into its own temp dir).
RETIRED = {
    "REPRO_CMFD": "1",
    "REPRO_SWEEP_BACKEND": "reference",
    "REPRO_TRACER": "reference",
    "REPRO_ENGINE": "mp",
    "REPRO_ENGINE_TIMEOUT": "garbage",
}

#: A c5g7-mini 2D solve and a 2-domain (z-decomposed) 3D solve, both with
#: tolerances out of reach so they run exactly ``max_iterations``.
CASES = {
    "c5g7-mini-2d": (
        "geometry: c5g7-mini\n"
        "tracking:\n  num_azim: 4\n  azim_spacing: 0.5\n  num_polar: 2\n"
        "solver:\n  max_iterations: 5\n"
        "  keff_tolerance: 1.0e-14\n  source_tolerance: 1.0e-14\n"
    ),
    "c5g7-3d-z2": (
        "geometry: c5g7-3d-mini\n"
        "tracking:\n  num_azim: 4\n  azim_spacing: 0.6\n"
        "  num_polar: 2\n  polar_spacing: 1.0\n"
        "decomposition:\n  nz: 2\n"
        "solver:\n  max_iterations: 3\n"
        "  keff_tolerance: 1.0e-14\n  source_tolerance: 1.0e-14\n"
        "  storage_method: EXP\n"
    ),
}


def solve(config, report, capsys):
    """``python -m repro --config config --report json:report``, as the
    report that run wrote."""
    code = main(["--config", str(config), "--report", f"json:{report}"])
    capsys.readouterr()
    assert code == 2  # ran all max_iterations, unconverged by design
    return load_report(report)


@pytest.mark.parametrize("case", sorted(CASES))
def test_environment_cannot_change_a_solve(case, tmp_path, monkeypatch, capsys):
    config = tmp_path / f"{case}.yaml"
    config.write_text(CASES[case])
    for name in (*RETIRED, "REPRO_REPORT"):
        monkeypatch.delenv(name, raising=False)
    clean = solve(config, tmp_path / "clean.json", capsys)

    env_report = tmp_path / "env.json"
    for name, value in RETIRED.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setenv("REPRO_REPORT", f"json:{env_report}")
    dirty = solve(config, tmp_path / "dirty.json", capsys)

    assert dirty.results.keff.hex() == clean.results.keff.hex()
    assert dirty.results.num_iterations == clean.results.num_iterations
    assert dirty.manifest.config_hash == clean.manifest.config_hash
    assert dirty.manifest.to_dict() == clean.manifest.to_dict()
    manifest = dirty.manifest
    assert (manifest.backend, manifest.engine) == ("numpy", "inproc")

    # Without --report (and no output.report) nothing is written.
    assert main(["--config", str(config)]) == 2
    capsys.readouterr()
    assert not env_report.exists()
