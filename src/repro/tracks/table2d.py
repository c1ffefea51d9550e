"""The radial laydown as flat columns.

:class:`TrackTable2D` is the one representation of a generator's 2D
tracks, their links and their chains — what
:func:`~repro.tracks.laydown.lay_tracks`,
:func:`~repro.tracks.chains.link_tracks` and
:func:`~repro.tracks.chains.build_chains` return, what the tracers, the
sweep topology, the 3D laydown, interface matching and the tracking
archive read. It is the radial counterpart of
:class:`~repro.tracks.raytrace3d.TrackTable3D` and follows its
conventions: per-track columns indexed by uid, ``(T, 2)`` link columns
with column 0 the forward exit, ragged membership as a CSR.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.geometry.geometry import SIDES
from repro.tracks.chains import Chain
from repro.tracks.track import Track2D, link_objects


@dataclass(eq=False)
class TrackTable2D:
    """A generator's radial laydown, links and chains, as flat columns.

    The columns are stored as given (a table restored from an archive
    equals the generated one dtype for dtype) and never written to.
    ``length`` and ``direction`` are ``math`` scalars evaluated by the
    laydown, ``el_offset`` / ``chain_length`` left-to-right Python sums:
    ``np.hypot`` / ``np.cos`` and a pairwise sum are not bitwise the same.

    :attr:`tracks` / :attr:`chains` are an object view built on first
    access — for tests, examples, the ``reference`` tracer and the
    reference sweep; no solve path reads it.
    """

    # Per track, indexed by uid (:func:`~repro.tracks.laydown.lay_tracks`).
    xyxy: np.ndarray  #: end points ``(x0, y0, x1, y1)``
    phi: np.ndarray
    direction: np.ndarray  #: ``(cos phi, sin phi)``
    azim: np.ndarray
    index_in_azim: np.ndarray
    start_side: np.ndarray  #: index into :data:`~repro.geometry.geometry.SIDES`
    end_side: np.ndarray
    length: np.ndarray
    # Per track end, ``(T, 2)``: column 0 the forward exit at ``(x1, y1)``,
    # column 1 the backward exit at ``(x0, y0)``
    # (:func:`~repro.tracks.chains.link_tracks`).
    link_uid: np.ndarray  #: ``-1`` where the flux leaves the domain
    link_fwd: np.ndarray
    vacuum: np.ndarray
    interface: np.ndarray
    # Chain ``c`` owns elements ``chain_ptr[c]:chain_ptr[c + 1]``
    # (:func:`~repro.tracks.chains.build_chains`).
    chain_ptr: np.ndarray
    el_uid: np.ndarray
    el_fwd: np.ndarray
    el_offset: np.ndarray
    chain_length: np.ndarray
    chain_closed: np.ndarray
    chain_azim: np.ndarray
    chain_iface: np.ndarray  #: ``(C, 2)``: starts / ends on an interface
    _objects: tuple[list[Track2D], list[Chain]] | None = field(
        default=None, init=False, repr=False
    )

    @classmethod
    def columns(cls) -> tuple[str, ...]:
        """Column names, in constructor order (the archive's ``t2_`` members)."""
        return tuple(f.name for f in fields(cls) if f.init)

    @property
    def num_tracks(self) -> int:
        return int(self.length.size)

    def objects(self) -> tuple[list[Track2D], list[Chain]]:
        """``(tracks, chains)``: the one place :class:`Track2D` and
        :class:`Chain` objects are built from the columns (once per
        table)."""
        if self._objects is None:
            sides = [
                [SIDES[code] for code in column.tolist()]
                for column in (self.start_side, self.end_side)
            ]
            tracks = [
                Track2D(*row)
                for row in zip(
                    range(self.num_tracks), self.azim.tolist(), *self.xyxy.T.tolist(),
                    self.phi.tolist(), self.index_in_azim.tolist(),
                    *link_objects(self.link_uid, self.link_fwd), *sides,
                    # column 0 is the (x1, y1) end, column 1 the (x0, y0) start
                    *self.vacuum.T[::-1].tolist(), *self.interface.T[::-1].tolist(),
                )
            ]
            ptr = self.chain_ptr.tolist()
            elements = list(zip(self.el_uid.tolist(), self.el_fwd.tolist()))
            offsets = self.el_offset.tolist()
            chains = [
                Chain(index, elements[lo:hi], closed, offsets[lo:hi], length, azim, *iface)
                for index, (lo, hi, closed, length, azim, iface) in enumerate(zip(
                    ptr[:-1], ptr[1:], self.chain_closed.tolist(), self.chain_length.tolist(),
                    self.chain_azim.tolist(), self.chain_iface.tolist(),
                ))
            ]
            self._objects = tracks, chains
        return self._objects

    @property
    def tracks(self) -> list[Track2D]:
        return self.objects()[0]

    @property
    def chains(self) -> list[Chain]:
        return self.objects()[1]
