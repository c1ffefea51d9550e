"""Golden records are host-independent: a scenario batch fans its states
out over the CPUs the process may run on, and its reports say how
(``scenario_shares`` / ``scenario_share``), so the golden solves run at
one-CPU affinity — one share on every host."""

from __future__ import annotations

import pytest

from tests.scenario.conftest import one_cpu_affinity


@pytest.fixture(scope="module", autouse=True)
def single_share():
    with one_cpu_affinity():
        yield
