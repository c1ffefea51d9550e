"""Track-storage strategies (paper Sec. 4.1, evaluated in Fig. 9).

Three ways to supply 3D segments to the transport sweep:

* **EXP** — trace every 3D track once and keep all segments resident:
  fastest sweeps, but segment memory grows with the track count until it
  exceeds device memory (the Fig. 9 out-of-memory wall);
* **OTF** — regenerate every 3D track's segments on each sweep: minimal
  memory, but the regeneration kernel is ~5x the source-computation
  kernel (Sec. 5.3);
* **Manager** — keep the largest tracks (most segments per regeneration
  cost) resident up to a memory threshold and regenerate only the rest;
  the paper reports ~30% speedup over pure OTF.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.constants import DEFAULT_RESIDENT_MEMORY_BYTES
from repro.errors import SolverError
from repro.solver.sweep3d import TransportSweep3D
from repro.tracks.generator import TrackGenerator3D
from repro.tracks.segments import SegmentData

#: Device bytes charged per stored 3D segment (length + FSR id, as in the
#: paper's single-precision device layout).
BYTES_PER_SEGMENT = 12


class StorageStrategy(ABC):
    """Supplies 3D segments for each sweep and accounts for memory."""

    name: str = "abstract"

    def __init__(self, trackgen: TrackGenerator3D) -> None:
        self.trackgen = trackgen
        #: Number of 3D tracks re-traced across all sweeps so far.
        self.regenerated_tracks_total = 0
        #: Number of sweeps served.
        self.sweeps_served = 0

    @abstractmethod
    def reference_segments(self) -> SegmentData:
        """A full segmentation usable for volume computation."""

    @abstractmethod
    def sweep(self, sweeper: TransportSweep3D, reduced_source: np.ndarray) -> np.ndarray:
        """Run one transport sweep, supplying segments per this strategy."""

    @abstractmethod
    def resident_memory_bytes(self) -> int:
        """Device bytes held resident for segments."""

    @property
    def num_resident(self) -> int:
        """3D tracks whose segments no sweep regenerates."""
        return self.trackgen.num_tracks_3d

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tracks={self.trackgen.num_tracks_3d})"


class ExplicitStorage(StorageStrategy):
    """EXP: all 3D segments generated once and kept resident."""

    name = "EXP"

    def __init__(self, trackgen: TrackGenerator3D) -> None:
        super().__init__(trackgen)
        self._segments = trackgen.trace_all_3d()

    def reference_segments(self) -> SegmentData:
        return self._segments

    def sweep(self, sweeper: TransportSweep3D, reduced_source: np.ndarray) -> np.ndarray:
        self.sweeps_served += 1
        return sweeper.sweep(self._segments, reduced_source)

    def resident_memory_bytes(self) -> int:
        return self._segments.num_segments * BYTES_PER_SEGMENT


class OnTheFlyStorage(StorageStrategy):
    """OTF: segments regenerated from 2D data on every sweep."""

    name = "OTF"
    num_resident = 0

    def reference_segments(self) -> SegmentData:
        return self.trackgen.trace_all_3d()

    def sweep(self, sweeper: TransportSweep3D, reduced_source: np.ndarray) -> np.ndarray:
        segments = self.trackgen.trace_all_3d()
        self.regenerated_tracks_total += self.trackgen.num_tracks_3d
        self.sweeps_served += 1
        return sweeper.sweep(segments, reduced_source)

    def resident_memory_bytes(self) -> int:
        return 0


def make_strategy(
    name: str,
    trackgen: TrackGenerator3D,
    resident_memory_bytes: int | None = None,
) -> StorageStrategy:
    """Factory keyed by the config names ``EXP`` / ``OTF`` / ``MANAGER`` / ``CCM``."""
    from repro.trackmgmt.manager import ManagedStorage

    key = name.upper()
    if key == "EXP":
        return ExplicitStorage(trackgen)
    if key == "OTF":
        return OnTheFlyStorage(trackgen)
    if key == "CCM":
        from repro.trackmgmt.ccm_storage import CCMStorage

        return CCMStorage(trackgen)
    if key == "MANAGER":
        budget = (
            resident_memory_bytes
            if resident_memory_bytes is not None
            else DEFAULT_RESIDENT_MEMORY_BYTES
        )
        return ManagedStorage(trackgen, resident_memory_bytes=budget)
    raise SolverError(f"unknown storage strategy {name!r}")
