"""Shared numeric constants for the ANT-MOC reproduction.

Values mirror the conventions of the paper and of mainstream MOC codes
(OpenMOC): four-pi normalisation for angular flux, single-precision track
fluxes on the device (Sec. 3.3, Eq. 7), and the geometric tolerances used
by the ray tracer to nudge points across surfaces.
"""

from __future__ import annotations

import math

#: 4*pi, the solid angle of the unit sphere; scalar flux normalisation.
FOUR_PI: float = 4.0 * math.pi

#: 2*pi, total azimuthal angle.
TWO_PI: float = 2.0 * math.pi

#: Geometric tolerance used when comparing coordinates on surfaces (cm).
ON_SURFACE_TOL: float = 1.0e-10

#: Distance a ray is nudged past a surface crossing to avoid re-hitting it.
RAY_NUDGE: float = 1.0e-9

#: Smallest segment length the ray tracer keeps (cm); shorter slivers are
#: merged into their neighbour to keep the sweep well conditioned.
MIN_SEGMENT_LENGTH: float = 1.0e-9

#: Largest optical thickness tabulated by the linear-interpolation
#: exponential evaluator; beyond this, 1 - exp(-tau) is within 1e-10 of 1.
MAX_TABULATED_TAU: float = 25.0

#: Default convergence tolerance on k-effective between power iterations.
DEFAULT_KEFF_TOL: float = 1.0e-6

#: Default convergence tolerance on the RMS fission-source residual.
DEFAULT_SOURCE_TOL: float = 1.0e-5

#: Default wait timeout (seconds) of the process engines' barrier phases
#: and mailbox waits.
DEFAULT_ENGINE_TIMEOUT: float = 600.0

#: Bytes per single-precision float; track fluxes are single precision on
#: the GPU (paper Sec. 3.3: "Single precision is used for flux memory").
SIZEOF_FLOAT32: int = 4

#: Bytes per double-precision float; host-side tallies are double precision.
SIZEOF_FLOAT64: int = 8

#: Bytes per 32-bit integer index.
SIZEOF_INT32: int = 4

#: Number of energy groups in the C5G7 benchmark.
C5G7_NUM_GROUPS: int = 7

#: GiB in bytes, used by the track manager's resident-memory threshold.
GIB: int = 1024**3

#: The paper's resident-track memory threshold (Sec. 5.3): 6.144 GB.
DEFAULT_RESIDENT_MEMORY_BYTES: int = int(6.144 * 1e9)
