"""Exception taxonomy for the ANT-MOC reproduction.

Every failure mode surfaced by the public API derives from
:class:`ReproError` so downstream users can catch library errors without
masking programming errors (``TypeError`` etc. are never wrapped).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every library-specific error."""


class ConfigError(ReproError):
    """A run configuration file or dict is malformed or inconsistent."""


class GeometryError(ReproError):
    """The CSG geometry is ill-formed (unbounded cell, overlapping regions,
    point not inside any cell, ...)."""


class TrackingError(ReproError):
    """Track laydown or ray tracing failed (degenerate angle, ray escaped
    the geometry, segment bookkeeping mismatch)."""


class SolverError(ReproError):
    """The transport solve failed (non-convergence, negative source,
    inconsistent dimensions between geometry and materials)."""


class DecompositionError(ReproError):
    """Spatial decomposition or load mapping is invalid (domain grid does
    not divide the geometry, empty partition, rank mismatch)."""


class HardwareModelError(ReproError):
    """The modelled cluster was configured or used inconsistently (a
    non-positive device figure, an empty partition, an unknown storage
    strategy)."""


class CommunicationError(ReproError):
    """The simulated communicator detected a protocol violation
    (mismatched send/recv, deadlock, message to unknown rank)."""


class AnalysisError(ReproError):
    """The static-analysis suite itself failed (unparseable source, bad
    rule selection, a checker emitting an undeclared rule id)."""


class ObservabilityError(ReproError):
    """The telemetry layer detected an inconsistency (malformed span tree,
    unknown counter name, unreadable or schema-incompatible run report)."""


class SanitizerError(ReproError):
    """The shm race sanitizer detected a protocol violation (same-epoch
    overlapping access, read of an unpublished halo region) or was
    misconfigured (fault spec naming a worker that does not exist)."""


class ScenarioError(ReproError):
    """A scenario batch is invalid (perturbation names no material in the
    geometry, a perturbed material violates cross-section consistency,
    batching requested on an incompatible backend)."""


class ServeError(ReproError):
    """The solve service failed (malformed request, protocol violation,
    job executed out of its lifecycle order, server unreachable)."""


class AdmissionError(ServeError):
    """A solve request was refused admission (queue at capacity, service
    draining or shut down). The request was never executed."""

