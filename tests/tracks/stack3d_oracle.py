"""The parent's per-object 3D laydown loops, kept verbatim as test oracles.

Before the laydown became :class:`~repro.tracks.raytrace3d.TrackTable3D`
columns, ``repro.tracks.stack3d`` constructed one ``Track3D`` per track
(``_stack_tracks_open`` / ``_stack_tracks_closed``), ``link_3d_stacks``
ended by writing its link arrays back into those objects, and
``ZDecomposedSolver._match_interfaces`` ran four loops over ``tracks3d``
per interface. Those loops live on here, unchanged, so the column code
can be compared with them attribute for attribute
(``tests/properties/test_track_table_properties.py``).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from repro.errors import DecompositionError
from repro.parallel.exchange import Route as Route3D
from repro.tracks.chains import Chain
from repro.tracks.stack3d import Stack3D, _correct_closed, _correct_open, link_3d_stacks
from repro.tracks.track import Track3D, TrackLink


def _stack_tracks_open(
    chain: Chain,
    polar: int,
    alpha_eff: float,
    n_s: int,
    n_z: int,
    length: float,
    zmin: float,
    zmax: float,
    next_uid: int,
) -> tuple[list[Track3D], Stack3D]:
    height = zmax - zmin
    ds = length / n_s
    dz = height / n_z
    theta_eff = math.pi / 2.0 - alpha_eff
    z_spacing = ds * math.sin(alpha_eff)
    cot = 1.0 / math.tan(alpha_eff)
    stack = Stack3D(chain.index, polar, theta_eff, z_spacing, closed=False)
    tracks: list[Track3D] = []

    def clip_up(s_start: float, z_start: float) -> tuple[float, float]:
        """End point of an up-going track from (s_start, z_start)."""
        dz_to_right = (length - s_start) / cot  # climb needed to reach s = L
        dz_to_top = zmax - z_start
        climb = min(dz_to_right, dz_to_top)
        return s_start + climb * cot, z_start + climb

    starts: list[tuple[float, float]] = []
    for i in range(n_s):
        starts.append(((i + 0.5) * ds, zmin))
    for j in range(n_z):
        starts.append((0.0, zmin + (j + 0.5) * dz))
    for (s0, z0) in starts:
        s1, z1 = clip_up(s0, z0)
        up = Track3D(
            uid=next_uid + len(tracks), chain=chain.index, polar=polar,
            s0=s0, z0=z0, s1=s1, z1=z1, theta=theta_eff, z_spacing=z_spacing,
        )
        tracks.append(up)
        # Mirror through the axial mid-plane for the down family.
        down = Track3D(
            uid=next_uid + len(tracks), chain=chain.index, polar=polar,
            s0=s0, z0=zmin + zmax - z0, s1=s1, z1=zmin + zmax - z1,
            theta=math.pi - theta_eff, z_spacing=z_spacing,
        )
        tracks.append(down)
    stack.track_uids = [t.uid for t in tracks]
    return tracks, stack


def _stack_tracks_closed(
    chain: Chain,
    polar: int,
    alpha_eff: float,
    n_s: int,
    k: int,
    length: float,
    zmin: float,
    zmax: float,
    next_uid: int,
) -> tuple[list[Track3D], Stack3D]:
    ds = length / n_s
    theta_eff = math.pi / 2.0 - alpha_eff
    z_spacing = ds * math.sin(alpha_eff)
    advance = k * ds
    stack = Stack3D(chain.index, polar, theta_eff, z_spacing, closed=True)
    tracks: list[Track3D] = []
    for i in range(n_s):
        s0 = (i + 0.5) * ds
        up = Track3D(
            uid=next_uid + len(tracks), chain=chain.index, polar=polar,
            s0=s0, z0=zmin, s1=s0 + advance, z1=zmax,
            theta=theta_eff, z_spacing=z_spacing,
        )
        tracks.append(up)
        down = Track3D(
            uid=next_uid + len(tracks), chain=chain.index, polar=polar,
            s0=s0, z0=zmax, s1=s0 + advance, z1=zmin,
            theta=math.pi - theta_eff, z_spacing=z_spacing,
        )
        tracks.append(down)
    stack.track_uids = [t.uid for t in tracks]
    return tracks, stack


def lay_stacks(chains, polar_quadrature, polar_spacing, zmin, zmax):
    """The body of the parent's ``generate_3d_stacks(..., link=False)``."""
    height = zmax - zmin
    all_tracks: list[Track3D] = []
    stacks: list[Stack3D] = []
    for chain in chains:
        for p in range(polar_quadrature.num_polar_half):
            theta = float(math.asin(polar_quadrature.sin_theta[p]))
            alpha = math.pi / 2.0 - theta
            if chain.closed:
                n_s, k, alpha_eff = _correct_closed(chain.length, height, alpha, polar_spacing)
                tracks, stack = _stack_tracks_closed(
                    chain, p, alpha_eff, n_s, k, chain.length, zmin, zmax, len(all_tracks)
                )
            else:
                n_s, n_z, alpha_eff = _correct_open(chain.length, height, alpha, polar_spacing)
                tracks, stack = _stack_tracks_open(
                    chain, p, alpha_eff, n_s, n_z, chain.length, zmin, zmax, len(all_tracks)
                )
            all_tracks.extend(tracks)
            stacks.append(stack)
    return all_tracks, stacks


def write_back(all_tracks, stacks, link_uid, link_fwd_flag, vacuum, interface) -> None:
    """The tail of the parent's ``link_3d_stacks``: ``2m`` flat link arrays
    (forward exits, then backward exits) unpacked into the objects."""
    uid = np.concatenate([np.asarray(st.track_uids, dtype=np.int64) for st in stacks])
    m = uid.size
    links = [
        TrackLink(u, bool(f)) if u >= 0 else None
        for u, f in zip(link_uid.tolist(), link_fwd_flag.tolist())
    ]
    vac_l = vacuum.tolist()
    ifc_l = interface.tolist()
    for i, u in enumerate(uid.tolist()):
        t = all_tracks[u]
        t.link_fwd = links[i]
        t.vacuum_end, t.interface_end = vac_l[i], ifc_l[i]
        t.link_bwd = links[m + i]
        t.vacuum_start, t.interface_start = vac_l[m + i], ifc_l[m + i]


def laydown(chains, polar_quadrature, polar_spacing, zmin, zmax, bc_zmin, bc_zmax):
    """Oracle ``(tracks, stacks)``: object laydown, the shipped join on the
    columns gathered back out of the objects (the gathers the parent's
    ``link_3d_stacks`` began with), then the object write-back."""
    tracks, stacks = lay_stacks(chains, polar_quadrature, polar_spacing, zmin, zmax)
    gathered = {
        "szsz": np.array([(t.s0, t.z0, t.s1, t.z1) for t in tracks]).reshape(-1, 4),
        "stack_ptr": np.cumsum([0] + [len(st.track_uids) for st in stacks]),
        "stack_chain": np.array([st.chain for st in stacks], dtype=np.int64),
        "stack_polar": np.array([st.polar for st in stacks], dtype=np.int64),
        "stack_closed": np.array([st.closed for st in stacks], dtype=bool),
    }
    chain_columns = SimpleNamespace(
        chain_length=np.array([c.length for c in chains]),
        chain_iface=np.array(
            [(c.starts_at_interface, c.ends_at_interface) for c in chains], dtype=bool
        ).reshape(-1, 2),
    )
    links = link_3d_stacks(gathered, chain_columns, zmin, zmax, bc_zmin, bc_zmax)
    write_back(tracks, stacks, *(links[name].T.reshape(-1) for name in (
        "link_uid", "link_fwd", "vacuum", "interface")))
    return tracks, stacks


def match_interfaces(domains) -> list[Route3D]:
    """The four per-track loops of the parent's ``ZDecomposedSolver._match_interfaces``
    (``domains`` -> ``domains``, ``len(domains)`` -> ``len(domains)``)."""
    routes: list[Route3D] = []
    for d in range(len(domains) - 1):
        lower = domains[d].trackgen
        upper = domains[d + 1].trackgen
        plane = domains[d].geometry.axial_mesh.zmax
        chains = {c.index: c.length for c in lower.chains}

        def key(chain, polar, s, ds_sign, dz_sign, length):
            s_red = s % length
            if abs(s_red - length) < 1e-9 * max(length, 1.0):
                s_red = 0.0
            return (chain, polar, round(s_red / (length * 1e-9 + 1e-12)), ds_sign, dz_sign)

        # Entry slots of the upper domain at its zmin, and of the
        # lower domain at its zmax (for downward-moving flux).
        entries: dict[tuple, tuple[int, int, int]] = {}
        for t in upper.tracks3d:
            length = chains[t.chain]
            if t.going_up and abs(t.z0 - plane) < 1e-9 * max(plane, 1.0):
                # forward entry moving (+s, +z)
                entries[key(t.chain, t.polar, t.s0, 1, 1, length)] = (d + 1, t.uid, 0)
            if t.going_up is False and abs(t.z1 - plane) < 1e-9 * max(plane, 1.0):
                # backward entry moving (-s, +z)
                entries[key(t.chain, t.polar, t.s1, -1, 1, length)] = (d + 1, t.uid, 1)
        down_entries: dict[tuple, tuple[int, int, int]] = {}
        for t in lower.tracks3d:
            length = chains[t.chain]
            if (not t.going_up) and abs(t.z0 - plane) < 1e-9 * max(plane, 1.0):
                down_entries[key(t.chain, t.polar, t.s0, 1, -1, length)] = (d, t.uid, 0)
            if t.going_up and abs(t.z1 - plane) < 1e-9 * max(plane, 1.0):
                down_entries[key(t.chain, t.polar, t.s1, -1, -1, length)] = (d, t.uid, 1)

        # Exits of the lower domain moving up through the plane.
        for t in lower.tracks3d:
            length = chains[t.chain]
            if t.going_up and t.interface_end and abs(t.z1 - plane) < 1e-9 * max(plane, 1.0):
                hit = entries.get(key(t.chain, t.polar, t.s1, 1, 1, length))
                if hit is None:
                    raise DecompositionError(
                        f"z-interface: no upper partner for track {t.uid} "
                        f"(chain {t.chain}, polar {t.polar}, s={t.s1:.8g})"
                    )
                routes.append(Route3D(d, t.uid, 0, *hit))
            if (not t.going_up) and t.interface_start and abs(t.z0 - plane) < 1e-9 * max(plane, 1.0):
                hit = entries.get(key(t.chain, t.polar, t.s0, -1, 1, length))
                if hit is None:
                    raise DecompositionError(
                        f"z-interface: no upper partner for backward track {t.uid}"
                    )
                routes.append(Route3D(d, t.uid, 1, *hit))
        # Exits of the upper domain moving down through the plane.
        for t in upper.tracks3d:
            length = chains[t.chain]
            if (not t.going_up) and t.interface_end and abs(t.z1 - plane) < 1e-9 * max(plane, 1.0):
                hit = down_entries.get(key(t.chain, t.polar, t.s1, 1, -1, length))
                if hit is None:
                    raise DecompositionError(
                        f"z-interface: no lower partner for track {t.uid}"
                    )
                routes.append(Route3D(d + 1, t.uid, 0, *hit))
            if t.going_up and t.interface_start and abs(t.z0 - plane) < 1e-9 * max(plane, 1.0):
                hit = down_entries.get(key(t.chain, t.polar, t.s0, -1, -1, length))
                if hit is None:
                    raise DecompositionError(
                        f"z-interface: no lower partner for backward track {t.uid}"
                    )
                routes.append(Route3D(d + 1, t.uid, 1, *hit))
    return routes

