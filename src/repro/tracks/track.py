"""Track data structures.

A :class:`Track2D` is a chord of the geometry bounding box at one of the
corrected azimuthal angles. A :class:`Track3D` lives in the ``(s, z)``
space of a 2D chain: ``s`` is arc length along the chain's radial path and
``z`` is the axial coordinate (the extruded-geometry representation that
lets 3D tracks be regenerated on the fly from 2D data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TrackLink:
    """Where outgoing flux goes when a track traversal ends.

    ``track`` is the connected track's index; ``forward`` tells whether the
    connected track is then traversed start-to-end (True) or end-to-start.
    ``None`` target (represented by a link with ``track < 0``) never occurs
    — vacuum/interface ends store ``None`` instead of a TrackLink.
    """

    track: int
    forward: bool


def link_objects(link_uid, link_fwd) -> list[list[TrackLink | None]]:
    """``[link_fwd, link_bwd]`` object lists over a track table's ``(T, 2)``
    ``link_uid`` / ``link_fwd`` columns (``None`` where the uid is ``-1``):
    what both object views hand their track constructors."""
    return [
        [TrackLink(u, f) if u >= 0 else None for u, f in zip(uid.tolist(), fwd.tolist())]
        for uid, fwd in zip(link_uid.T, link_fwd.T)
    ]


@dataclass(slots=True)
class Track2D:
    """A 2D track: directed chord of the domain at azimuthal angle ``phi``.

    The stored direction is the *forward* direction (into ``(0, pi)``);
    sweeps traverse tracks both forward and backward.
    """

    uid: int
    azim: int
    x0: float
    y0: float
    x1: float
    y1: float
    phi: float
    #: Index of this track within its azimuthal angle group.
    index_in_azim: int = 0
    #: Flux destination when exiting at (x1, y1) going forward.
    link_fwd: TrackLink | None = None
    #: Flux destination when exiting at (x0, y0) going backward.
    link_bwd: TrackLink | None = None
    #: Boundary side names where the track starts/ends ("xmin", ...).
    start_side: str = ""
    end_side: str = ""
    #: True when the corresponding end lies on a vacuum boundary.
    vacuum_start: bool = False
    vacuum_end: bool = False
    #: True when the corresponding end lies on a subdomain interface.
    interface_start: bool = False
    interface_end: bool = False

    @property
    def length(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    @property
    def direction(self) -> tuple[float, float]:
        return math.cos(self.phi), math.sin(self.phi)

    def point_at(self, s: float) -> tuple[float, float]:
        """Point at arc length ``s`` from the start."""
        ux, uy = self.direction
        return self.x0 + s * ux, self.y0 + s * uy

    def __repr__(self) -> str:
        return (
            f"Track2D(uid={self.uid}, azim={self.azim}, "
            f"({self.x0:.4g},{self.y0:.4g})->({self.x1:.4g},{self.y1:.4g}))"
        )


@dataclass(slots=True)
class Track3D:
    """A 3D track within one chain's ``(s, z)`` space.

    ``s0 < s1`` always (the forward direction advances along the chain);
    ``z0``/``z1`` may go either way — ``z1 > z0`` for the "up" polar family
    and ``z1 < z0`` for the "down" family. For closed (periodic) chains
    ``s`` may wrap: then ``s1 = s0 + ds_total`` exceeds the chain length
    and readers must reduce modulo it.
    """

    uid: int
    chain: int
    polar: int
    s0: float
    z0: float
    s1: float
    z1: float
    #: Effective polar angle from the z-axis, in (0, pi).
    theta: float
    #: Perpendicular spacing of the 3D stack in the (s, z) plane.
    z_spacing: float
    #: Flux destination at the (s1, z1) end going forward / (s0, z0) end
    #: going backward; None means vacuum / interface.
    link_fwd: TrackLink | None = None
    link_bwd: TrackLink | None = None
    vacuum_start: bool = False
    vacuum_end: bool = False
    interface_start: bool = False
    interface_end: bool = False

    @property
    def ds(self) -> float:
        return self.s1 - self.s0

    @property
    def dz(self) -> float:
        return self.z1 - self.z0

    @property
    def length(self) -> float:
        return math.hypot(self.ds, self.dz)

    @property
    def going_up(self) -> bool:
        return self.z1 > self.z0

    def __repr__(self) -> str:
        return (
            f"Track3D(uid={self.uid}, chain={self.chain}, polar={self.polar}, "
            f"s=[{self.s0:.4g},{self.s1:.4g}], z=[{self.z0:.4g},{self.z1:.4g}])"
        )
