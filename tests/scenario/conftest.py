"""Shared builders for the scenario-batch suite."""

from __future__ import annotations

import contextlib
import os

import pytest

from tests.observability.conftest import mini_2d_config

#: The canonical 4-state perturbation set used across the suite: one
#: nominal state plus one branch of each perturbation kind.
FOUR_STATES = [
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
    {
        "name": "dense-moderator",
        "perturbations": [
            {"kind": "density", "material": "Moderator", "factor": 1.05}
        ],
    },
    {
        "name": "mox-swap",
        "perturbations": [
            {
                "kind": "substitute",
                "material": "MOX-4.3%",
                "replacement": "MOX-7.0%",
            }
        ],
    },
]


def batch_config(scenarios=None, **overrides):
    """A deterministic c5g7-mini batch config on the numpy backend."""
    solver = {
        "max_iterations": 5,
        "keff_tolerance": 1e-14,
        "source_tolerance": 1e-14,
        "sweep_backend": "numpy",
    }
    solver.update(overrides.pop("solver", {}))
    return mini_2d_config(
        solver=solver,
        scenarios=FOUR_STATES if scenarios is None else scenarios,
        **overrides,
    )


@pytest.fixture()
def four_state_config():
    return batch_config()


@contextlib.contextmanager
def one_cpu_affinity():
    """Restrict this process to one of its CPUs, so a scenario batch runs
    as a single share (its fan-out follows the affinity mask); restored
    on exit."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
