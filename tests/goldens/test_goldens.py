"""Golden-record regression harness.

Each golden file under ``tests/goldens/`` pins the *answers* of one small
deterministic solve — k-eff and flux reductions spelled bitwise through
``float.hex``, the workload counters, and the report shape (stage and
counter name sets). Timings are deliberately absent: they vary run to
run and belong to the diff CLI's informational tier, not a regression
gate.

To regenerate after an intentional numeric change::

    PYTHONPATH=src python -m pytest tests/goldens --update-goldens

Failures print the full ``repro.report``-style diff so the responsible
quantity is named, not just "assert False".
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.observability.diff import diff_records, format_diff, has_significant
from repro.observability.exporters import read_record, write_record
from repro.runtime import AntMocApplication
from repro.scenario import run_scenario_batch
from tests.observability.conftest import mini_2d_config, mini_3d_config

GOLDEN_DIR = Path(__file__).resolve().parent

CASES = {
    "c5g7-mini-2d": lambda: mini_2d_config(
        solver={
            "max_iterations": 12,
            "keff_tolerance": 1e-14,
            "source_tolerance": 1e-14,
        },
    ),
    "c5g7-3d-z2": lambda: mini_3d_config(
        decomposition={"nz": 2},
        solver={
            "max_iterations": 8,
            "keff_tolerance": 1e-14,
            "source_tolerance": 1e-14,
            "storage_method": "EXP",
        },
    ),
    # CMFD on: both run the D-hat limiter on some face-groups, so the
    # coarse assembly is pinned bitwise including its limited branch.
    "c5g7-mini-2d-cmfd": lambda: mini_2d_config(
        solver={
            "max_iterations": 12,
            "keff_tolerance": 1e-14,
            "source_tolerance": 1e-14,
            "cmfd": True,
        },
    ),
    "c5g7-3d-z2-cmfd": lambda: mini_3d_config(
        decomposition={"nz": 2},
        solver={
            "max_iterations": 8,
            "keff_tolerance": 1e-14,
            "source_tolerance": 1e-14,
            "storage_method": "EXP",
            "cmfd": True,
        },
    ),
}

#: Scenario-batch goldens: each pins ONE perturbed state of a two-state
#: batch (nominal + branch) solved through the widened scenario-axis
#: kernel. The backend is pinned to numpy because the ``scenarios_batched``
#: counter is mode-dependent (other backends run the sequential fallback).
SCENARIO_CASES = {
    "c5g7-mini-fission95": (
        "fission-95",
        lambda: mini_2d_config(
            solver={
                "max_iterations": 12,
                "keff_tolerance": 1e-14,
                "source_tolerance": 1e-14,
                "sweep_backend": "numpy",
            },
            scenarios=[
                {"name": "nominal", "perturbations": []},
                {
                    "name": "fission-95",
                    "perturbations": [
                        {
                            "kind": "scale_xs",
                            "material": "UO2",
                            "reaction": "fission",
                            "factor": 0.95,
                        }
                    ],
                },
            ],
        ),
    ),
    "c5g7-mini-dense-moderator": (
        "dense-moderator",
        lambda: mini_2d_config(
            solver={
                "max_iterations": 12,
                "keff_tolerance": 1e-14,
                "source_tolerance": 1e-14,
                "sweep_backend": "numpy",
            },
            scenarios=[
                {"name": "nominal", "perturbations": []},
                {
                    "name": "dense-moderator",
                    "perturbations": [
                        {"kind": "density", "material": "Moderator", "factor": 1.05}
                    ],
                },
            ],
        ),
    ),
}

#: Exactly the keys a golden record carries — the schema test pins this
#: so timings (or anything else host-dependent) can never sneak in.
GOLDEN_KEYS = (
    "case",
    "keff",
    "keff_hex",
    "converged",
    "num_iterations",
    "group_flux_hex",
    "fission_rate_sum_hex",
    "counters",
    "stage_names",
    "counter_names",
)


def golden_path(case: str) -> Path:
    return GOLDEN_DIR / f"{case}.json"


def measure(case: str) -> dict:
    """Solve the case and reduce it to the golden schema."""
    if case in SCENARIO_CASES:
        target, factory = SCENARIO_CASES[case]
        state = run_scenario_batch(factory()).state(target)
        result, report = state, state.run_report
    else:
        result = AntMocApplication(CASES[case]()).run()
        report = result.run_report
    counters = report.counters.to_dict()
    return {
        "case": case,
        "keff": float(result.keff),
        "keff_hex": float(result.keff).hex(),
        "converged": bool(result.converged),
        "num_iterations": int(result.num_iterations),
        "group_flux_hex": [float(v).hex() for v in result.scalar_flux.sum(axis=0)],
        "fission_rate_sum_hex": float(result.fission_rates.sum()).hex(),
        "counters": counters,
        "stage_names": sorted(n for n in report.stages if "/" not in n),
        "counter_names": sorted(counters),
    }


@pytest.fixture(scope="module", params=sorted(CASES) + sorted(SCENARIO_CASES))
def measured(request):
    return measure(request.param)


class TestGoldens:
    def test_matches_golden(self, measured, update_goldens):
        path = golden_path(measured["case"])
        if update_goldens:
            write_record(path, measured)
            pytest.skip(f"golden regenerated: {path.name}")
        if not path.exists():
            pytest.fail(
                f"no golden record for {measured['case']!r}; generate it with "
                f"`python -m pytest tests/goldens --update-goldens`"
            )
        entries = diff_records(read_record(path), measured)
        assert not entries, (
            f"{measured['case']} drifted from its golden record "
            f"({path.name}):\n{format_diff(entries)}"
        )

    def test_golden_file_schema(self, measured, update_goldens):
        if update_goldens:
            pytest.skip("golden being regenerated")
        golden = read_record(golden_path(measured["case"]))
        assert tuple(golden) == GOLDEN_KEYS
        # The decimal and hex spellings must describe the same float.
        assert float.fromhex(golden["keff_hex"]) == golden["keff"]  # repro: ignore[float-eq] — hex and decimal spellings of the same stored bits

    def test_perturbed_keff_fails_loudly(self, measured):
        """Negative control: a 1e-6 k-eff drift must trip the harness."""
        perturbed = dict(measured)
        perturbed["keff"] = measured["keff"] + 1e-6
        perturbed["keff_hex"] = float(perturbed["keff"]).hex()
        entries = diff_records(measured, perturbed)
        assert has_significant(entries)
        assert any("keff" in e.path for e in entries)
        # And the rendered diff names the quantity for the human reading CI.
        assert "keff" in format_diff(entries)

    def test_last_bit_flux_drift_is_caught(self, measured):
        """The hex spelling makes even one-ULP flux drift visible."""
        import math

        perturbed = dict(measured)
        flux = [float.fromhex(h) for h in measured["group_flux_hex"]]
        flux[0] = math.nextafter(flux[0], math.inf)
        perturbed["group_flux_hex"] = [v.hex() for v in flux]
        entries = diff_records(measured, perturbed)
        assert has_significant(entries)
        assert any("group_flux_hex" in e.path for e in entries)
