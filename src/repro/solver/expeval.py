"""Evaluation of the MOC exponential kernel ``F(tau) = 1 - exp(-tau)``.

GPU MOC codes replace ``exp`` with a linear-interpolation table to trade a
transcendental for two fused multiply-adds; ANT-MOC inherits the same
device idiom. The table is built so the maximum interpolation error is
bounded by ``max_error`` (absolute) and, when requested, by
``max_relative_error`` down to the ``tau -> 0`` limit.

``F`` is evaluated with ``expm1`` near zero for full relative accuracy.

Every sweeper takes the one process-wide table,
:meth:`ExponentialEvaluator.shared` at its defaults (88 390 points,
1.4 MB): no configuration chooses another resolution or an exact mode.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import MAX_TABULATED_TAU
from repro.errors import SolverError

_SHARED: dict[tuple, "ExponentialEvaluator"] = {}


def exact_f(tau: np.ndarray) -> np.ndarray:
    """Exact ``1 - exp(-tau)``, accurate for small ``tau``."""
    return -np.expm1(-np.asarray(tau, dtype=np.float64))


class ExponentialEvaluator:
    """Tabulated linear interpolation of ``F(tau) = 1 - exp(-tau)``.

    For linear interpolation on a uniform grid of spacing ``h`` the
    absolute error is bounded by ``h^2 |F''| / 8 <= h^2 / 8``, so the grid
    spacing satisfies ``h <= sqrt(8 * max_error)``. A *relative* bound is
    dominated by the first interval, where ``F(tau) ~ tau`` and the
    interpolant under-estimates by at most a factor ``h / 2``; later
    intervals contribute at most ``(h^2/8) / F(h) ~ h / 8``. Supplying
    ``max_relative_error = r`` therefore additionally enforces
    ``h <= 2 r``, making the table accurate in relative terms all the way
    into the ``tau -> 0`` limit. Arguments beyond ``tau_max`` clamp to
    ``F = 1`` (already within 1e-11 of exact at the default cutoff).
    """

    def __init__(
        self,
        max_error: float = 1.0e-8,
        tau_max: float = MAX_TABULATED_TAU,
        max_relative_error: float | None = None,
    ) -> None:
        if max_error <= 0.0 or tau_max <= 0.0:
            raise SolverError("max_error and tau_max must be positive")
        if max_relative_error is not None and max_relative_error <= 0.0:
            raise SolverError("max_relative_error must be positive")
        self.max_error = float(max_error)
        self.max_relative_error = (
            None if max_relative_error is None else float(max_relative_error)
        )
        self.tau_max = float(tau_max)
        h = math.sqrt(8.0 * max_error)
        if self.max_relative_error is not None:
            h = min(h, 2.0 * self.max_relative_error)
        self.num_points = int(math.ceil(tau_max / h)) + 1
        self.spacing = tau_max / (self.num_points - 1)
        grid = np.linspace(0.0, tau_max, self.num_points)
        values = exact_f(grid)
        # Precompute slope/intercept per interval for one-FMA evaluation.
        self._slope = np.empty(self.num_points)
        self._slope[:-1] = np.diff(values) / self.spacing
        self._slope[-1] = 0.0
        self._intercept = np.empty(self.num_points)
        self._intercept[:-1] = values[:-1] - self._slope[:-1] * grid[:-1]
        self._intercept[-1] = 1.0

    # ------------------------------------------------------------- sharing

    @classmethod
    def shared(
        cls,
        max_error: float = 1.0e-8,
        tau_max: float = MAX_TABULATED_TAU,
        max_relative_error: float | None = None,
    ) -> "ExponentialEvaluator":
        """One process-wide evaluator per parameter set.

        Every sweeper takes the default one instead of building a private
        table, so every solver component sees the same table object —
        which also keys the plans' cached per-segment exponential buffers.
        """
        key = (float(max_error), float(tau_max), max_relative_error)
        evaluator = _SHARED.get(key)
        if evaluator is None:
            evaluator = cls(
                max_error=max_error,
                tau_max=tau_max,
                max_relative_error=max_relative_error,
            )
            _SHARED[key] = evaluator
        return evaluator

    # ---------------------------------------------------------- evaluation

    def __call__(self, tau: np.ndarray) -> np.ndarray:
        """``F(tau)`` for non-negative ``tau`` (vectorised)."""
        tau = np.asarray(tau, dtype=np.float64)
        idx = (tau * (1.0 / self.spacing)).astype(np.int64)
        np.clip(idx, 0, self.num_points - 1, out=idx)
        return self._slope[idx] * tau + self._intercept[idx]

    def table_bytes(self) -> int:
        """Device memory the table would occupy (two float64 per point)."""
        return int(self._slope.nbytes + self._intercept.nbytes)

    def __repr__(self) -> str:
        rel = (
            ""
            if self.max_relative_error is None
            else f", max_relative_error={self.max_relative_error:g}"
        )
        return (
            f"ExponentialEvaluator(points={self.num_points}, "
            f"max_error={self.max_error:g}{rel}, tau_max={self.tau_max:g})"
        )

