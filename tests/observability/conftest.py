"""Shared fixtures for the observability suite: tiny solves and manifests."""

from __future__ import annotations

import pytest

from repro.io.config import config_from_dict
from repro.observability import RunManifest


def mini_2d_config(**overrides):
    """A deterministic c5g7-mini 2D run: tolerances far below reach, so the
    solve always executes exactly ``max_iterations`` iterations."""
    base = {
        "geometry": "c5g7-mini",
        "tracking": {"num_azim": 4, "azim_spacing": 0.5, "num_polar": 2},
        "solver": {
            "max_iterations": 5,
            "keff_tolerance": 1e-14,
            "source_tolerance": 1e-14,
        },
    }
    base.update(overrides)
    return config_from_dict(base)


def mini_3d_config(**overrides):
    """A deterministic c5g7-3d-mini run (axial pipeline)."""
    base = {
        "geometry": "c5g7-3d-mini",
        "tracking": {
            "num_azim": 4, "azim_spacing": 0.6,
            "num_polar": 2, "polar_spacing": 1.0,
        },
        "solver": {
            "max_iterations": 3,
            "keff_tolerance": 1e-14,
            "source_tolerance": 1e-14,
            "storage_method": "EXP",
        },
    }
    base.update(overrides)
    return config_from_dict(base)


@pytest.fixture()
def manifest():
    """A hand-built manifest for unit tests that never run a solve."""
    return RunManifest(
        config_hash="0" * 64,
        git_rev="deadbeef",
        geometry="unit-box",
        engine="inproc",
        backend="numpy",
        storage_method="EXP",
    )
