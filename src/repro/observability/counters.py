"""Typed counters for the paper's workload terms.

Every counter the report schema admits is declared in
:data:`COUNTER_SCHEMA` — incrementing an undeclared name raises, so a
typo'd counter can never silently vanish from the regression goldens.
All counters are non-negative integers and merge by elementwise addition,
which makes :meth:`CounterSet.merge` associative and commutative across
worker reports (pinned by hypothesis in
``tests/observability/test_properties.py``).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import ObservabilityError

#: Every admissible counter name -> what it measures. The ordering here is
#: the canonical report ordering (goldens pin the name set).
COUNTER_SCHEMA: dict[str, str] = {
    "tracks_2d": "radial 2D tracks laid down across all domains",
    "tracks_3d": "3D tracks laid down across all domains (0 for 2D solves)",
    "segments_2d": "radial 2D segments traced across all domains",
    "segments_3d": "3D segments traced across all domains (0 for 2D solves)",
    "tracks_3d_resident": (
        "3D tracks whose segments stay resident, summed over domains: all "
        "under EXP / CCM, none under OTF, the manager's resident set under "
        "MANAGER (extruded solves only)"
    ),
    "tracks_3d_regenerated": (
        "3D tracks re-traced during the solve: (tracks_3d - "
        "tracks_3d_resident) x transport iterations (extruded solves only)"
    ),
    "segments_swept": (
        "directional segment traversals summed over transport iterations "
        "(2 directions x swept segments x iterations)"
    ),
    "tracking_cache_hits": "track generators restored from the tracking cache",
    "tracking_cache_misses": "track generators built despite an enabled cache",
    "halo_bytes": (
        "bytes exchanged between ranks: boundary angular flux plus modelled "
        "collective traffic (CommStats.bytes_sent)"
    ),
    "halo_messages": "messages exchanged between ranks (CommStats.messages_sent)",
    "allreduce_calls": "global eigenvalue/production allreduce invocations",
    "fsr_count": "flat source regions in the solved geometry",
    "iteration_count": "transport iterations executed",
    "moc_iterations": (
        "full MOC transport sweeps executed — the quantity CMFD "
        "acceleration minimises; pinned so convergence regressions diff"
    ),
    "cmfd_solves": "coarse-mesh CMFD eigenvalue solves run (0 when off)",
    "cmfd_iterations": (
        "coarse-mesh inner power iterations summed over CMFD solves "
        "(0 when acceleration is off)"
    ),
    "cmfd_skips": (
        "coarse-mesh solves whose acceleration step was skipped (singular "
        "operator, inner iteration cap, lost positivity): unit factors, the "
        "transport eigenvalue kept"
    ),
    "cmfd_limited": (
        "face-groups whose D-hat the CMFD flux limiter capped at D-tilde, "
        "summed over coarse solves"
    ),
    "num_domains": "spatial subdomains in the decomposition (1 if undecomposed)",
    "num_workers": "OS processes that executed sweeps (1 for inproc)",
    "halo_wait_ns": (
        "nanoseconds workers spent blocked on neighbour mailbox epochs "
        "(mp-async engines; an engine property, not a workload term)"
    ),
    "neighbor_stalls": (
        "per-edge mailbox waits that actually blocked (mp-async engines; "
        "an engine property, not a workload term)"
    ),
    "epochs_overlapped": (
        "worker iterations whose halo inputs were already published on "
        "first check, i.e. communication fully hidden behind compute "
        "(mp-async engines; an engine property, not a workload term)"
    ),
    "sanitizer_events": (
        "shared-memory accesses the shm race sanitizer logged and audited "
        "(mp-sanitize / mp-async-sanitize; an engine property)"
    ),
    "sanitizer_findings": (
        "protocol violations the shm race sanitizer found (non-zero only "
        "on a fault-injected run: an unfaulted run with findings fails)"
    ),
    "scenarios_total": (
        "perturbed states this solve answered (0 for plain single-state "
        "runs; every state report of a batch carries the batch total)"
    ),
    "scenarios_batched": (
        "states swept through the widened scenario-axis kernel (0 when "
        "the per-state sequential fallback ran)"
    ),
    "laydowns_shared": (
        "states that reused the batch's shared track laydown instead of "
        "tracing their own (states_total - 1 when sharing worked)"
    ),
    "sweeps_batched": (
        "widened multi-state transport sweeps on the batch's critical "
        "path — the most any share executed, i.e. the iterations of the "
        "slowest state, however the states were cut into shares (each one "
        "replaces one single-state sweep per state of its share)"
    ),
    "scenario_shares": (
        "processes the batch's states were solved on: one per usable CPU, "
        "at most one per state (absent on a decomposed batch, whose "
        "states run on engine workers)"
    ),
    "scenario_share": (
        "index of the share (contiguous run of states, one process) that "
        "solved this state; share 0 is the calling process"
    ),
    "serve_requests": (
        "solve requests this report answers (1 per served request; absent "
        "for CLI solves — a service-only key, excluded from solve "
        "equivalence comparisons)"
    ),
    "report_cache_hits": (
        "requests answered from the manifest-keyed report cache without "
        "sweeping (service-only key)"
    ),
    "report_cache_misses": (
        "requests that executed a fresh solve because no cached report "
        "matched their manifest (service-only key)"
    ),
    "report_cache_evictions": (
        "LRU evictions this request caused when its report was stored "
        "(service-only key)"
    ),
    "serve_slot": (
        "index of the solve slot (forked solver process) that ran this "
        "request's fresh solve; absent on a report-cache hit "
        "(service-only key; match it against the stats op's slots list)"
    ),
}

#: Counter names that describe the *service* layer (request reuse, the
#: slot that solved), never the solved workload. A served report is
#: bitwise-equal to the same config solved via the CLI *modulo these keys*
#: — equivalence comparisons and the report diff's significance rules
#: exclude them.
SERVICE_ONLY_COUNTERS = frozenset(
    {
        "serve_requests",
        "report_cache_hits",
        "report_cache_misses",
        "report_cache_evictions",
        "serve_slot",
    }
)


class CounterSet:
    """A typed bag of named non-negative integer counters."""

    def __init__(self, values: Mapping[str, int] | None = None) -> None:
        self._values: dict[str, int] = {}
        if values:
            for name, value in values.items():
                self.add(name, value)

    def _check(self, name: str, amount: int) -> int:
        if name not in COUNTER_SCHEMA:
            raise ObservabilityError(
                f"unknown counter {name!r}; declared counters: "
                f"{sorted(COUNTER_SCHEMA)}"
            )
        amount = int(amount)
        if amount < 0:
            raise ObservabilityError(f"counter {name!r} increment must be >= 0 (got {amount})")
        return amount

    def add(self, name: str, amount: int = 1) -> None:
        """Accumulate ``amount`` into ``name`` (declared names only)."""
        amount = self._check(name, amount)
        self._values[name] = self._values.get(name, 0) + amount

    def __getitem__(self, name: str) -> int:
        if name not in COUNTER_SCHEMA:
            raise ObservabilityError(f"unknown counter {name!r}")
        return self._values.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self.to_dict())

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CounterSet):
            return self.to_dict() == other.to_dict()
        return NotImplemented

    def __repr__(self) -> str:
        return f"CounterSet({self.to_dict()!r})"

    def to_dict(self) -> dict[str, int]:
        """Recorded counters in canonical (schema) order."""
        return {
            name: self._values[name]
            for name in COUNTER_SCHEMA
            if name in self._values
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, int]) -> "CounterSet":
        return cls(payload)

    def merge(self, other: "CounterSet | Mapping[str, int]") -> "CounterSet":
        """Elementwise addition — associative and commutative by design."""
        payload = other.to_dict() if isinstance(other, CounterSet) else other
        for name, value in payload.items():
            self.add(name, value)
        return self
