"""3D track generation: z-stacks over 2D chains (paper Sec. 3.2.1).

3D tracks are laid in the ``(s, z)`` space of each 2D chain, where ``s``
is arc length along the chain's radial path. Two constructions are used:

* **open chains** (terminating on vacuum/interface boundaries): cyclic 2D
  laydown on the ``L x H`` rectangle, with the polar angle corrected so
  all boundary crossings land on shared half-integer grids — reflections
  at the z-planes are then exact pairings, as in the radial problem;
* **closed chains** (periodic cycles): a helix construction — the track
  advance per full height traversal is snapped to an integer number of
  stack spacings, so reflected tracks land exactly on other tracks of the
  stack and no flux ever leaves the chain radially.

Every (2D chain, polar index) pair yields one stack holding an "up"
family (``dz > 0``) and its mirrored "down" family, interleaved; sweeping
both families in both directions covers the full unit sphere.

The laydown is **columns**, never objects. :func:`lay_3d_stacks` returns
the per-track columns ``szsz chain polar z_spacing`` and the per-stack
columns ``stack_chain stack_polar stack_theta stack_z_spacing
stack_closed`` with the CSR ``stack_ptr`` (uids are handed out stack by
stack, so stack ``i`` owns tracks ``stack_ptr[i]:stack_ptr[i + 1]``, even
offsets up, odd offsets down); :func:`link_3d_stacks` returns the
``(T, 2)`` link columns ``link_uid link_fwd vacuum interface`` (column 0
the forward exit at ``(s1, z1)``, column 1 the backward exit at
``(s0, z0)``). Both dicts are keyed by the parameter names of
:class:`~repro.tracks.raytrace3d.TrackTable3D`, which carries them from
then on. :func:`track_objects` is the one place :class:`Track3D` /
:class:`Stack3D` objects are built from those columns — a view for tests,
examples and debugging that no solve path touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.errors import TrackingError
from repro.geometry.geometry import BoundaryCondition
from repro.quadrature.polar import PolarQuadrature
from repro.tracks.segments import csr_ranges
from repro.tracks.track import Track3D, link_objects


@dataclass
class Stack3D:
    """All 3D tracks of one (chain, polar index) pair."""

    chain: int
    polar: int
    theta_eff: float
    z_spacing: float
    closed: bool
    #: Global uids of member tracks (up/down pairs interleaved).
    track_uids: list[int] = field(default_factory=list)


def _correct_open(length: float, height: float, alpha: float, spacing: float) -> tuple[int, int, float]:
    """Cyclic correction on an ``L x H`` rectangle; returns (n_s, n_z, alpha_eff)."""
    n_s = max(1, int(length / spacing * abs(math.sin(alpha))) + 1)
    n_z = max(1, int(height / spacing * abs(math.cos(alpha))) + 1)
    alpha_eff = math.atan((height * n_s) / (length * n_z))
    return n_s, n_z, alpha_eff


def _correct_closed(length: float, height: float, alpha: float, spacing: float) -> tuple[int, int, float]:
    """Helix correction on a periodic-``s`` cylinder; returns (n_s, k, alpha_eff).

    ``k`` is the integer number of stack spacings a track advances in ``s``
    while climbing the full height.
    """
    n_s = max(1, round(length * abs(math.sin(alpha)) / spacing))
    ds = length / n_s
    k = max(1, round(height / math.tan(alpha) / ds))
    alpha_eff = math.atan((height * n_s) / (k * length))
    return n_s, k, alpha_eff


def lay_3d_stacks(
    radial,
    polar_quadrature: PolarQuadrature,
    polar_spacing: float,
    zmin: float,
    zmax: float,
) -> dict[str, np.ndarray]:
    """Lay every (chain, polar) stack; returns the laydown columns.

    ``radial`` carries the chain columns ``chain_length`` /
    ``chain_closed`` (a :class:`~repro.tracks.table2d.TrackTable2D`).
    Polar angles are corrected per chain (chains have different lengths),
    mirroring how ANT-MOC's axial laydown ties the effective polar angle
    to the track-chain geometry. The quadrature *weights* stay global.

    The correction and its ``sin`` / ``tan`` are ``math`` scalars per
    stack (``np.tan`` / ``np.arctan`` are different functions in the last
    bit); everything per track is then one ragged pass over all stacks at
    once, each expression a single IEEE operation per element.
    """
    if polar_spacing <= 0.0:
        raise TrackingError(f"polar spacing must be positive (got {polar_spacing})")
    if zmax <= zmin:
        raise TrackingError(f"invalid axial extent [{zmin}, {zmax}]")
    height = zmax - zmin
    alphas = [
        math.pi / 2.0 - float(math.asin(polar_quadrature.sin_theta[p]))
        for p in range(polar_quadrature.num_polar_half)
    ]
    rows = []
    chains = zip(radial.chain_length.tolist(), radial.chain_closed.tolist())
    for index, (chain_length, chain_closed) in enumerate(chains):
        correct = _correct_closed if chain_closed else _correct_open
        for p, alpha in enumerate(alphas):
            n_s, n_z, alpha_eff = correct(chain_length, height, alpha, polar_spacing)
            rows.append((
                index, p, chain_closed, chain_length, n_s, n_z,
                alpha_eff, math.sin(alpha_eff), math.tan(alpha_eff),
            ))
    # ``n_z`` is the helix advance ``k`` (in stack spacings) on a closed chain.
    (
        stack_chain, stack_polar, stack_closed, length, n_s, n_z,
        alpha_eff, sin_alpha, tan_alpha,
    ) = (np.array(column) for column in zip(*rows))
    ds = length / n_s
    stack_z_spacing = ds * sin_alpha

    # Up-track starts: ``n_s`` along the bottom edge, then (open chains
    # only) ``n_z`` up the ``s = 0`` edge.
    pairs = n_s + np.where(stack_closed, 0, n_z)
    i, stack = csr_ranges(np.zeros(pairs.size, dtype=np.int64), pairs)
    bottom = i < n_s[stack]
    s0 = np.where(bottom, (i + 0.5) * ds[stack], 0.0)
    z0 = np.where(bottom, zmin, zmin + ((i - n_s[stack]) + 0.5) * (height / n_z)[stack])
    # Open chains clip at the right or the top edge, whichever comes first;
    # closed chains climb the full height while advancing ``k`` spacings.
    closed = stack_closed[stack]
    cot = (1.0 / tan_alpha)[stack]
    climb = np.minimum((length[stack] - s0) / cot, zmax - z0)
    s1 = np.where(closed, s0 + (n_z * ds)[stack], s0 + climb * cot)
    z1 = np.where(closed, zmax, z0 + climb)
    # The down family mirrors the up family through the axial mid-plane.
    mirror = zmin + zmax
    szsz = np.empty((2 * i.size, 4))
    szsz[0::2] = np.column_stack((s0, z0, s1, z1))
    szsz[1::2] = np.column_stack((
        s0, np.where(closed, zmax, mirror - z0), s1, np.where(closed, zmin, mirror - z1),
    ))

    counts = 2 * pairs
    stack_ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=stack_ptr[1:])
    return {
        "szsz": szsz,
        "chain": np.repeat(stack_chain, counts),
        "polar": np.repeat(stack_polar, counts),
        "z_spacing": np.repeat(stack_z_spacing, counts),
        "stack_ptr": stack_ptr,
        "stack_chain": stack_chain,
        "stack_polar": stack_polar,
        "stack_theta": math.pi / 2.0 - alpha_eff,
        "stack_z_spacing": stack_z_spacing,
        "stack_closed": stack_closed,
    }


def link_3d_stacks(
    laydown: dict[str, np.ndarray],
    radial,
    zmin: float,
    zmax: float,
    bc_zmin: BoundaryCondition = BoundaryCondition.REFLECTIVE,
    bc_zmax: BoundaryCondition = BoundaryCondition.VACUUM,
) -> dict[str, np.ndarray]:
    """Link every 3D track's ends (z reflections, chain ends) in one pass.

    Reads the ``szsz`` and ``stack_*`` columns of ``laydown`` and the
    ``chain_length`` / ``chain_iface`` columns of ``radial``, and returns
    the ``(T, 2)`` link columns: ``link_uid`` / ``link_fwd`` say where the
    flux leaving each end continues (``-1`` / ``False``: nowhere) and
    ``vacuum`` / ``interface`` flag the ends it leaves the domain through.

    Directions in ``(s, z)`` space are characterised by the pair of signs
    ``(ds_sign, dz_sign)``; reflection at a z-plane flips ``dz_sign`` only.

    Endpoints are quantized onto per-stack grids of ``quantum``-sized bins
    and the reflective pairing is a single vectorised hash join over *all*
    stacks at once (a per-stack join spends more time in numpy dispatch
    than in work — stacks hold only tens of tracks). A key is the tuple
    ``(stack, k0, k1, ds_sign, dz_sign)``; since the quantized coordinates
    span up to ~2**31 bins each, the tuple cannot be packed directly into
    an int64, so ``(stack, k0)`` is rank-compressed through ``np.unique``
    first and the compact rank packed with the remaining fields. Every
    query probes its 3x3 key neighbourhood with ``searchsorted`` in the
    same scan order as the original per-stack dict probe, so ties resolve
    identically. Two endpoints quantizing to the same key would silently
    shadow each other in a hash join, so duplicates are detected and
    reported as a :class:`TrackingError` with the offending uids.
    """
    for bc in (bc_zmin, bc_zmax):
        if bc not in (
            BoundaryCondition.VACUUM,
            BoundaryCondition.INTERFACE,
            BoundaryCondition.REFLECTIVE,
        ):
            raise TrackingError(f"unsupported axial boundary condition {bc}")
    height = zmax - zmin
    z_tol = height * 1e-9

    # Uids are handed out stack by stack, so member order is uid order.
    s0, z0, s1, z1 = laydown["szsz"].T
    m = s0.size
    stack_chain = laydown["stack_chain"]
    stack_of = np.repeat(
        np.arange(stack_chain.size, dtype=np.int64), np.diff(laydown["stack_ptr"])
    )
    dz_sign = np.where(z1 > z0, 1, -1).astype(np.int64)

    # Per-stack constants, gathered to membership order.
    length_st = radial.chain_length[stack_chain]
    quantum_st = np.maximum(length_st, height) * 1e-9
    starts_ifc_st, ends_ifc_st = radial.chain_iface[stack_chain].T
    length_m = length_st[stack_of]
    closed_m = laydown["stack_closed"][stack_of]
    quantum_m = quantum_st[stack_of]

    def qkey(
        s: np.ndarray, z: np.ndarray, length: np.ndarray,
        closed: np.ndarray, quantum: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        # Same arithmetic as the scalar per-stack quantization: closed
        # chains reduce s modulo the chain length with a near-length snap.
        s_mod = np.mod(s, length)
        s_mod = np.where(np.abs(s_mod - length) < quantum, 0.0, s_mod)
        s_red = np.where(closed, s_mod, s)
        return (
            np.round(s_red / quantum).astype(np.int64),
            np.round(z / quantum).astype(np.int64),
        )

    # Entries: forward flux enters a track at its start, backward at its end.
    k0_start, k1_start = qkey(s0, z0, length_m, closed_m, quantum_m)
    k0_end, k1_end = qkey(s1, z1, length_m, closed_m, quantum_m)
    ek0 = np.concatenate([k0_start, k0_end])
    ek1 = np.concatenate([k1_start, k1_end])
    eds = np.concatenate([np.ones(m, dtype=np.int64), -np.ones(m, dtype=np.int64)])
    edz = np.concatenate([dz_sign, -dz_sign])
    estack = np.concatenate([stack_of, stack_of])
    entry_uid = np.tile(np.arange(m), 2)
    entry_forward = np.concatenate([np.ones(m, dtype=bool), np.zeros(m, dtype=bool)])

    # Queries: only exits landing on a *reflective* z-plane look up a
    # partner; everything else resolves to vacuum/interface flags below.
    # Forward exits sit at (s1, z1) going (+1, dz); backward at (s0, z0)
    # going (-1, -dz). The reflected probe direction flips dz.
    q_s = np.concatenate([s1, s0])
    q_z = np.concatenate([z1, z0])
    q_ds = np.concatenate([np.ones(m, dtype=np.int64), -np.ones(m, dtype=np.int64)])
    q_dz = np.concatenate([dz_sign, -dz_sign])

    on_zmax = (np.abs(q_z - zmax) < z_tol) & (q_dz > 0)
    on_zmin = (np.abs(q_z - zmin) < z_tol) & (q_dz < 0)
    radial = ~(on_zmax | on_zmin)
    reflective = (on_zmax & (bc_zmax is BoundaryCondition.REFLECTIVE)) | (
        on_zmin & (bc_zmin is BoundaryCondition.REFLECTIVE)
    )

    entry_of_query = np.full(2 * m, -1, dtype=np.int64)
    ref = np.flatnonzero(reflective)
    if ref.size:
        member_ref = entry_uid[ref]
        rk0, rk1 = qkey(
            q_s[ref], q_z[ref], length_m[member_ref],
            closed_m[member_ref], quantum_m[member_ref],
        )
        rds = q_ds[ref]
        rdz = -q_dz[ref]  # reflection flips dz
        rstack = estack[ref]

        # Rank-compress (stack, k0) over entries plus all candidate probe
        # columns so the full key fits one exact int64.
        def col(stack: np.ndarray, a: np.ndarray) -> np.ndarray:
            return stack * (1 << 33) + (a + 2)

        cols = [col(estack, ek0)] + [col(rstack, rk0 + da) for da in (-1, 0, 1)]
        uniq, inv = np.unique(np.concatenate(cols), return_inverse=True)
        if uniq.size >= 1 << 24 or max(
            int(np.abs(ek1).max(initial=0)), int(np.abs(rk1).max(initial=0))
        ) >= (1 << 35) - 2:
            raise TrackingError("3D linking key table overflow")
        r_e = inv[: ek0.size]
        r_qm1, r_q0, r_qp1 = np.split(inv[ek0.size :], 3)
        rank_q = {-1: r_qm1, 0: r_q0, 1: r_qp1}

        def pack(rank: np.ndarray, b: np.ndarray, ds: np.ndarray, dz: np.ndarray) -> np.ndarray:
            # rank < 2**24, |b| < 2**35: fields stay disjoint below 2**63.
            return (rank << 38) + ((b + (1 << 35)) << 2) + (ds > 0) * 2 + (dz > 0)

        codes = pack(r_e, ek1, eds, edz)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        dup = np.flatnonzero(sorted_codes[1:] == sorted_codes[:-1])
        if dup.size:
            a, b = entry_uid[order[dup[0]]], entry_uid[order[dup[0] + 1]]
            st = int(estack[order[dup[0]]])
            raise TrackingError(
                f"3D tracks {int(a)} and {int(b)} (chain {int(stack_chain[st])}, polar "
                f"{int(laydown['stack_polar'][st])}): endpoints quantize to the same linking key; "
                f"stack spacing is below the quantization resolution"
            )

        found = np.full(ref.size, -1, dtype=np.int64)
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                open_q = found < 0
                if not open_q.any():
                    break
                cand = pack(rank_q[da][open_q], rk1[open_q] + db, rds[open_q], rdz[open_q])
                pos = np.searchsorted(sorted_codes, cand)
                hit = (pos < sorted_codes.size) & (
                    sorted_codes[np.minimum(pos, sorted_codes.size - 1)] == cand
                )
                targets = np.flatnonzero(open_q)[hit]
                found[targets] = order[pos[hit]]
        if (found < 0).any():
            j = int(ref[int(np.argmax(found < 0))])
            raise TrackingError(
                f"3D track {int(entry_uid[j])}: no reflective partner at "
                f"(s={q_s[j]:.8g}, z={q_z[j]:.8g}) direction "
                f"({int(q_ds[j])}, {int(-q_dz[j])})"
            )
        entry_of_query[ref] = found

    # Boundary flags. Radial chain ends (s = 0 or s = L on an open chain)
    # couple through the 2D chain, marked interface/vacuum per chain flags.
    at_end = q_s > length_m[entry_uid] / 2.0
    radial_ifc = np.where(
        at_end, ends_ifc_st[estack], starts_ifc_st[estack]
    )
    vacuum = np.zeros(2 * m, dtype=bool)
    interface = np.zeros(2 * m, dtype=bool)
    interface[radial] = radial_ifc[radial]
    vacuum[radial] = ~radial_ifc[radial]
    for mask, bc in ((on_zmax, bc_zmax), (on_zmin, bc_zmin)):
        if bc is BoundaryCondition.VACUUM:
            vacuum[mask] = True
        elif bc is BoundaryCondition.INTERFACE:
            interface[mask] = True

    has = entry_of_query >= 0
    columns = {
        "link_uid": np.where(has, entry_uid[entry_of_query], -1),
        "link_fwd": entry_forward[entry_of_query] & has,
        "vacuum": vacuum,
        "interface": interface,
    }
    # Forward exits fill the first ``m`` slots, backward exits the rest.
    return {name: column.reshape(2, m).T for name, column in columns.items()}


def track_objects(table) -> tuple[list[Track3D], list[Stack3D]]:
    """:class:`Track3D` / :class:`Stack3D` objects over a laydown's columns.

    ``table`` is anything carrying the columns as attributes (a
    :class:`~repro.tracks.raytrace3d.TrackTable3D`). This is a *view* for
    tests, examples and debugging: every production path reads the
    columns, and the objects are never written back.
    """
    ptr = table.stack_ptr.tolist()
    theta = np.repeat(table.stack_theta, np.diff(table.stack_ptr))
    # Stacks hold whole up/down pairs, so every odd uid is a mirrored track.
    theta[1::2] = math.pi - theta[1::2]
    links = link_objects(table.link_uid, table.link_fwd)
    tracks = [
        Track3D(*row)
        for row in zip(
            range(ptr[-1]), table.chain.tolist(), table.polar.tolist(),
            *table.szsz.T.tolist(), theta.tolist(), table.z_spacing.tolist(), *links,
            # column 0 is the (s1, z1) end, column 1 the (s0, z0) start
            *table.vacuum.T[::-1].tolist(), *table.interface.T[::-1].tolist(),
        )
    ]
    stacks = [
        Stack3D(*row, list(range(lo, hi)))
        for *row, lo, hi in zip(
            table.stack_chain.tolist(), table.stack_polar.tolist(),
            table.stack_theta.tolist(), table.stack_z_spacing.tolist(),
            table.stack_closed.tolist(), ptr[:-1], ptr[1:],
        )
    ]
    return tracks, stacks


def generate_3d_stacks(
    radial,
    polar_quadrature: PolarQuadrature,
    polar_spacing: float,
    zmin: float,
    zmax: float,
    bc_zmin: BoundaryCondition = BoundaryCondition.REFLECTIVE,
    bc_zmax: BoundaryCondition = BoundaryCondition.VACUUM,
) -> tuple[list[Track3D], list[Stack3D]]:
    """Lay and link all 3D stacks; returns the object view ``(tracks, stacks)``.

    The track generator calls :func:`lay_3d_stacks` and
    :func:`link_3d_stacks` itself (the two phases are timed separately)
    and keeps the columns; this is the same laydown for callers that want
    objects.
    """
    laydown = lay_3d_stacks(radial, polar_quadrature, polar_spacing, zmin, zmax)
    links = link_3d_stacks(laydown, radial, zmin, zmax, bc_zmin, bc_zmax)
    return track_objects(SimpleNamespace(**laydown, **links))
