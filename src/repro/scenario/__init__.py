"""Batched multi-state scenario solving: trace once, sweep N states.

The public surface:

* :func:`~repro.scenario.batch.run_scenario_batch` — the driver behind
  the ``solve-batch`` CLI verb and the serve layer's batch jobs; the
  states of a single-domain batch are solved side by side, one
  contiguous share per CPU the process may run on (forked workers plus
  the caller — sized by the affinity mask alone, see
  :mod:`repro.scenario.batch`);
* :func:`~repro.scenario.perturbation.scenario_materials` — derive one
  state's per-FSR material list from declarative perturbations;
* :func:`~repro.scenario.perturbation.state_config_hash` /
  :func:`~repro.scenario.perturbation.batch_manifest` — per-state and
  batch identity through the manifest's float-bit-sensitive hashing.
"""

from repro.scenario.batch import (
    BATCH_MODES,
    BatchRunResult,
    ScenarioState,
    run_scenario_batch,
)
from repro.scenario.batched import BatchedKeffSolver, BatchedSweep2D
from repro.scenario.perturbation import (
    batch_manifest,
    scenario_materials,
    state_config_hash,
)

__all__ = [
    "BATCH_MODES",
    "BatchRunResult",
    "BatchedKeffSolver",
    "BatchedSweep2D",
    "ScenarioState",
    "batch_manifest",
    "run_scenario_batch",
    "scenario_materials",
    "state_config_hash",
]
