"""The ledger's named workloads: what runs, why, and what it must return.

Each workload is an ordered list of *operations*. For the solve workloads
an operation is one fresh child process (``child.py``) over the workload's
YAML; for ``serve-mix`` it is one request against a freshly launched
``python -m repro.serve``. Every workload pins the result it must
reproduce: convergence flag, ``keff`` (an operation further than 1 pcm off
fails) and the iteration count.

The solve workloads have fixed inputs — their outputs are checked against
pinned references, so ``--seed`` has nothing to vary there. ``serve-mix``
draws its request order from the seed (see :func:`serve_schedule`).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"

#: An operation fails when its keff is further than this from the pin.
KEFF_TOLERANCE = 1.0e-5


@dataclass(frozen=True)
class Expect:
    """Pinned outcome of one solved state."""

    converged: bool
    keff: float
    iterations: int

    def mismatches(self, converged: bool, keff: float, iterations: int) -> list[str]:
        """How a solved state differs from this pin (empty: it matches)."""
        problems = []
        if converged != self.converged:
            problems.append(f"converged={converged}, pinned {self.converged}")
        if iterations != self.iterations:
            problems.append(f"{iterations} iterations, pinned {self.iterations}")
        if abs(keff - self.keff) > KEFF_TOLERANCE:
            problems.append(
                f"keff {keff:.6f} is more than 1 pcm from the pinned {self.keff:.6f}"
            )
        return problems


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: which layers do the work here, and which do none.
    why: str
    #: ``solve`` / ``batch`` (child processes) or ``serve`` (requests).
    kind: str
    #: Operation labels, in order. All operations of one repeat share one
    #: fresh temp dir (and therefore one tracking-cache dir).
    ops: tuple[str, ...]
    #: State name -> pinned outcome (``run`` for a single-state solve,
    #: scenario names for a batch, ``block<i>`` for serve-mix).
    expect: dict[str, Expect]

    @property
    def config_path(self) -> Path:
        return WORKLOAD_DIR / f"{self.name}.yaml"

    @property
    def exit_code(self) -> int:
        """What the child must exit with (the CLI's convention)."""
        return 0 if all(e.converged for e in self.expect.values()) else 2


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="c2d-sweep",
            why="numpy 2D kernel + KeffSolver loop do ~87% of wall; tracking, "
            "CMFD, engines, serve do none: kernel gains show, tracking gains must not",
            kind="solve",
            ops=("solve",),
            expect={"run": Expect(True, 0.682244, 282)},
        ),
        Workload(
            name="c2d-batch4",
            why="same sweep layer widened over 4 states (BatchedSweep2D) with in-kernel "
            "current tallies and a CMFD solve per state per iteration",
            kind="batch",
            ops=("batch",),
            expect={
                "nominal": Expect(True, 0.682501, 42),
                "fission-95": Expect(True, 0.667078, 41),
                "dense-moderator": Expect(True, 0.690914, 43),
                "mox-swap": Expect(True, 0.712747, 43),
            },
        ),
        Workload(
            name="c3d-setup",
            why="repro.tracks + repro.trackmgmt dominate, kernel is 3 iterations; "
            "tracking-cache store (op 1) and load (op 2) sit side by side",
            kind="solve",
            ops=("cold", "warm"),
            expect={"run": Expect(False, 0.874053, 3)},
        ),
        Workload(
            name="c3d-z2-mp",
            why="paper's operating mode: 3D kernel on 2 forked workers, barrier-phased "
            "halo exchange, parent-side CMFD; exposes serial set-up and exchange cost",
            kind="solve",
            ops=("solve",),
            expect={"run": Expect(True, 0.150230, 26)},
        ),
        Workload(
            name="c3d-z2-async",
            why="identical input through the mailbox/grant engine; paired with c3d-z2-mp "
            "it isolates the engine layer (all else is bitwise equal)",
            kind="solve",
            ops=("solve",),
            expect={"run": Expect(True, 0.150230, 26)},
        ),
        Workload(
            name="serve-mix",
            why="only workload where queueing, report/tracking/arena reuse and the wire "
            "protocol decide a metric; 24 manifests over a 16-slot report cache",
            kind="serve",
            ops=("request",),
            expect={
                "block0": Expect(True, 0.256793, 13),
                "block1": Expect(True, 0.249867, 13),
                "block2": Expect(True, 0.248740, 14),
                "block3": Expect(True, 0.245039, 14),
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# serve-mix: manifests and the seeded request schedule.
# ---------------------------------------------------------------------------

#: ``python -m repro.serve`` sizing; the load is 2 closed-loop connections.
SERVE_THREADS = 2
SERVE_CACHE_SIZE = 16
SERVE_CONNECTIONS = 2

#: Tracking blocks (num_azim, azim_spacing): manifests of one block share a
#: laydown through the server's tracking cache.
SERVE_BLOCKS = ((4, 0.5), (4, 0.4), (8, 0.5), (8, 0.4))
#: Solver-tolerance variants per block. They differ in the last digits of
#: the tolerance only, so every variant of a block sweeps the same work and
#: the mix costs the same whichever manifests the seed favours.
SERVE_VARIANTS = 6
#: Manifests requested once per round (report-cache hits after their first
#: touch); the other 14 are the tail, requested round-robin.
SERVE_HOT = (0, 1, 2, 6, 7, 8, 12, 13, 18, 19)
SERVE_TAIL_PER_ROUND = 2
#: 28 rounds x (10 hot + 2 tail) = 336 requests; each tail manifest is
#: requested 4 times, each hot one 28 times.
SERVE_ROUNDS = 28


def serve_manifests(base: dict, cache_dir: str) -> list[dict]:
    """The 24 request payloads: block-major, variant-minor."""
    manifests = []
    for num_azim, spacing in SERVE_BLOCKS:
        for variant in range(SERVE_VARIANTS):
            payload = copy.deepcopy(base)
            payload["tracking"].update(
                num_azim=num_azim, azim_spacing=spacing, cache_dir=cache_dir
            )
            payload["solver"]["keff_tolerance"] *= 1.0 + 1.0e-6 * variant
            manifests.append(payload)
    return manifests


def serve_block(manifest_index: int) -> int:
    return manifest_index // SERVE_VARIANTS


def serve_schedule(seed: int, rounds: int = SERVE_ROUNDS) -> list[int]:
    """Manifest index of every request, in send order.

    A stratified draw from a skewed popularity: every round requests each
    hot manifest once and the next two tail manifests of a seeded cyclic
    order, shuffled within the round. The seed decides the order, never
    the amount of work — a plain i.i.d. draw would move the number of cold
    solves by +-10 % between seeds and the timings with it. With at most
    9 other hot and 4 tail manifests between two uses of a hot one, LRU
    (16 slots) never evicts a hot report; a tail manifest recurs only
    after all 23 others were requested, so it always re-misses.
    """
    rng = random.Random(seed)
    num_manifests = len(SERVE_BLOCKS) * SERVE_VARIANTS
    tail = [m for m in range(num_manifests) if m not in SERVE_HOT]
    rng.shuffle(tail)
    schedule: list[int] = []
    cursor = 0
    for _ in range(rounds):
        batch = list(SERVE_HOT)
        for _ in range(SERVE_TAIL_PER_ROUND):
            batch.append(tail[cursor % len(tail)])
            cursor += 1
        rng.shuffle(batch)
        schedule.extend(batch)
    return schedule
