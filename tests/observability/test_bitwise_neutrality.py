"""The observability layer never perturbs the numerics.

Hard invariant from the design: k-eff and flux are bitwise identical with
reporting on or off. Instrumentation is passive (it reads clocks and
solver state), and report *export* happens after the solve — these tests
prove both halves on a real run.
"""

import numpy as np

from repro.observability.exporters import load_report, write_report
from repro.runtime import AntMocApplication
from tests.observability.conftest import mini_2d_config


class TestBitwiseNeutrality:
    def test_reporting_on_vs_off_identical(self, tmp_path):
        # Off: no report requested.
        plain = AntMocApplication(mini_2d_config()).run()

        # On: report requested via config and exported in every format.
        reported = AntMocApplication(
            mini_2d_config(output={"report": f"json:{tmp_path}/run.json"})
        ).run()
        for fmt in ("json", "jsonl", "text"):
            write_report(reported.run_report, fmt, default_dir=tmp_path, stem=f"run-{fmt}")

        assert reported.keff.hex() == plain.keff.hex()
        assert reported.num_iterations == plain.num_iterations
        assert np.array_equal(reported.scalar_flux, plain.scalar_flux)
        assert np.array_equal(reported.fission_rates, plain.fission_rates)

    def test_export_does_not_mutate_results(self, tmp_path):
        result = AntMocApplication(mini_2d_config()).run()
        keff_before = result.keff.hex()
        flux_before = result.scalar_flux.copy()
        written = write_report(result.run_report, f"json:{tmp_path}/run.json")
        assert result.keff.hex() == keff_before
        assert np.array_equal(result.scalar_flux, flux_before)
        # And the exported eigenvalue is bit-for-bit the in-memory one.
        assert load_report(written).results.keff.hex() == keff_before

    def test_two_independent_runs_bitwise_identical(self):
        """Determinism baseline: the comparison above is only meaningful
        because two identical runs agree to the last bit."""
        a = AntMocApplication(mini_2d_config()).run()
        b = AntMocApplication(mini_2d_config()).run()
        assert a.keff.hex() == b.keff.hex()
        assert np.array_equal(a.scalar_flux, b.scalar_flux)
        assert a.run_report.counters == b.run_report.counters
