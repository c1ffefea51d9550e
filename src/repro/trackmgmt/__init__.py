"""Track-storage strategies: EXP, OTF, and the Manager (paper Sec. 4.1)."""

from repro.trackmgmt.strategy import (
    StorageStrategy,
    ExplicitStorage,
    OnTheFlyStorage,
    make_strategy,
)
from repro.trackmgmt.manager import (
    ManagedStorage,
    estimate_segments_batch,
    estimate_track_segments,
)
from repro.trackmgmt.ccm_storage import CCMStorage

__all__ = [
    "StorageStrategy",
    "ExplicitStorage",
    "OnTheFlyStorage",
    "ManagedStorage",
    "CCMStorage",
    "estimate_segments_batch",
    "estimate_track_segments",
    "make_strategy",
]
