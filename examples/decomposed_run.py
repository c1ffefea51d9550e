#!/usr/bin/env python
"""A spatially decomposed run through the five-stage pipeline (Fig. 2).

Drives the same mini C5G7 configuration twice — single domain and 3x3
spatial decomposition with simulated MPI boundary-flux exchange — from a
``config.yaml``-style configuration, and compares eigenvalues, fission
rates, and the communication traffic against the Eq. (7) model. The two
run reports are written next to the script and diffed with the
observability CLI, showing which differences are *significant* (counters:
the decomposed run sweeps per-domain track sets and moves halo bytes)
and which are merely timing noise.

Run:  python examples/decomposed_run.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.io.config import config_from_dict
from repro.observability.exporters import write_report
from repro.perfmodel import communication_bytes
from repro.report import main as report_cli
from repro.runtime import AntMocApplication


def run(decomposition):
    config = config_from_dict(
        {
            "geometry": "c5g7-mini",
            "tracking": {"num_azim": 4, "azim_spacing": 0.4, "num_polar": 2},
            "decomposition": decomposition,
            "solver": {
                "max_iterations": 250,
                "keff_tolerance": 1e-5,
                "source_tolerance": 1e-4,
            },
        }
    )
    app = AntMocApplication(config)
    return app, app.run()


def main() -> None:
    print("=== single domain ===")
    app_single, single = run({"nx": 1, "ny": 1})
    print(single.report())

    print("\n=== 3x3 decomposition (9 simulated ranks) ===")
    app_dec, decomposed = run({"nx": 3, "ny": 3})
    print(decomposed.report())

    print(f"\nk-eff single     : {single.keff:.6f}")
    print(f"k-eff decomposed : {decomposed.keff:.6f}")
    print("(small shift expected: each congruent domain re-runs the cyclic")
    print(" track correction on its own rectangle — the paper's caveat)")

    solver = app_dec.pipeline.artifacts[list(app_dec.pipeline.artifacts)[2]]
    routes = len(solver.routes)
    polar_half = 1  # num_polar=2 -> one hemisphere angle
    groups = 7
    per_iter = routes * polar_half * groups * 8  # float64 host payloads
    print(f"\ninterface routes        : {routes}")
    print(f"measured comm bytes     : {decomposed.comm_bytes:,}")
    print(f"Eq. (7) flavour estimate: {per_iter * decomposed.num_iterations:,} "
          "(p2p payloads only; the measured figure adds collectives)")

    # Normalised fission-rate agreement (paper: 'usually the same').
    r1 = np.sort(single.fission_rates[single.fission_rates > 0])
    r2 = np.sort(decomposed.fission_rates[decomposed.fission_rates > 0])
    if r1.size == r2.size:
        err = np.abs(r1 - r2) / r1
        print(f"normalised fission-rate max deviation: {100 * err.max():.2f}%")

    # Export both run reports and diff them through the observability CLI.
    with tempfile.TemporaryDirectory() as tmp:
        a = write_report(single.run_report, "json", default_dir=Path(tmp), stem="single")
        b = write_report(decomposed.run_report, "json", default_dir=Path(tmp), stem="decomposed")
        print("\n=== python -m repro.report diff single.json decomposed.json ===")
        report_cli(["diff", str(a), str(b)])


if __name__ == "__main__":
    main()
