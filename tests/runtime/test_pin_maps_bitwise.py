"""The pin-power map and the pin tallies query the flat view once, over
every sample point, and give the bits of the per-point loops they replaced
(kept here as the oracle, on the tree walk)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.runtime.antmoc import GEOMETRY_BUILDERS
from repro.runtime.output import pin_power_map
from repro.runtime.tallies import pin_fission_rates


def loop_power_map(geometry, density, nx, ny):
    grid = np.zeros((ny, nx))
    dx = geometry.width / nx
    dy = geometry.height / ny
    for j in range(ny):
        for i in range(nx):
            x = geometry.xmin + (i + 0.5) * dx
            y = geometry.ymin + (j + 0.5) * dy
            grid[j, i] = density[geometry._find_fsr_tree(x, y)]
    positive = grid[grid > 0]
    return grid / positive.mean() if positive.size else grid


def loop_pin_rates(geometry, density, pins_x, pins_y, sub):
    pitch_x = geometry.width / pins_x
    pitch_y = geometry.height / pins_y
    cell_area = (pitch_x / sub) * (pitch_y / sub)
    rates = np.zeros((pins_y, pins_x))
    for j in range(pins_y):
        for i in range(pins_x):
            total = 0.0
            for sj in range(sub):
                for si in range(sub):
                    x = geometry.xmin + i * pitch_x + (si + 0.5) * pitch_x / sub
                    y = geometry.ymin + j * pitch_y + (sj + 0.5) * pitch_y / sub
                    total += density[geometry._find_fsr_tree(x, y)]
            rates[j, i] = total * cell_area
    return rates


@pytest.fixture(scope="module")
def problem():
    """Every FSR gets its own fission density, spread over six decades, so
    a sum taken in another order changes bits."""
    geometry = GEOMETRY_BUILDERS["c5g7-mini"]()
    terms = SimpleNamespace(sigma_f=np.ones((geometry.num_fsrs, 1)))
    flux = 10.0 ** np.random.default_rng(7).uniform(-3.0, 3.0, (geometry.num_fsrs, 1))
    density = np.einsum("rg,rg->r", terms.sigma_f, flux)
    return geometry, terms, flux, density


@pytest.mark.parametrize("nx, ny", [(17, 13), (40, 40)])
def test_pin_power_map_equals_the_point_loop(problem, nx, ny):
    geometry, terms, flux, density = problem
    grid = pin_power_map(geometry, terms, flux, np.ones(geometry.num_fsrs), nx, ny)
    assert grid.tobytes() == loop_power_map(geometry, density, nx, ny).tobytes()


@pytest.mark.parametrize("pins_x, pins_y, sub", [(9, 9, 4), (7, 5, 3), (5, 5, 8), (10, 10, 1)])
def test_pin_fission_rates_equal_the_point_loop(problem, pins_x, pins_y, sub):
    geometry, terms, flux, density = problem
    pins = pin_fission_rates(
        geometry, terms, flux, np.ones(geometry.num_fsrs), pins_x, pins_y, sub
    )
    want = loop_pin_rates(geometry, density, pins_x, pins_y, sub)
    assert pins.rates.tobytes() == want.tobytes()
