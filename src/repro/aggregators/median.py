"""Median-based gradient filters: coordinate-wise and geometric median."""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.exceptions import InvalidParameterError


class CoordinateWiseMedian(GradientFilter):
    """Per-coordinate median of the received gradients.

    The extreme case of the trimmed mean (maximal trimming); tolerates any
    minority of Byzantine inputs per coordinate.
    """

    name = "median"

    def minimum_inputs(self) -> int:
        return max(2 * self._f + 1, 1)

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        return np.median(gradients, axis=0)

    def _aggregate_batch(self, tensor: np.ndarray) -> np.ndarray:
        return np.median(tensor, axis=1)


class GeometricMedian(GradientFilter):
    """Geometric (spatial) median computed with Weiszfeld's algorithm.

    Minimizes ``Σ_i ||z − g_i||`` over ``z ∈ R^d``. The implementation uses
    the smoothed Weiszfeld iteration (a small ``smoothing`` is added to each
    distance) which sidesteps the classical breakdown when an iterate
    coincides with an input point, and stops on a fixed-point tolerance.

    Parameters
    ----------
    f:
        Declared tolerance (informational; the geometric median's breakdown
        point is 1/2 regardless).
    max_iterations, tolerance, smoothing:
        Weiszfeld iteration controls.
    """

    name = "geomed"

    def __init__(
        self,
        f: int = 0,
        max_iterations: int = 200,
        tolerance: float = 1e-10,
        smoothing: float = 1e-12,
    ):
        super().__init__(f)
        if max_iterations <= 0:
            raise InvalidParameterError(f"max_iterations must be positive, got {max_iterations}")
        if tolerance <= 0:
            raise InvalidParameterError(f"tolerance must be positive, got {tolerance}")
        if smoothing <= 0:
            raise InvalidParameterError(f"smoothing must be positive, got {smoothing}")
        self._max_iterations = int(max_iterations)
        self._tolerance = float(tolerance)
        self._smoothing = float(smoothing)

    def minimum_inputs(self) -> int:
        return max(2 * self._f + 1, 1)

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        return weiszfeld(
            gradients,
            max_iterations=self._max_iterations,
            tolerance=self._tolerance,
            smoothing=self._smoothing,
        )


def weiszfeld(
    points: np.ndarray,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
    smoothing: float = 1e-12,
) -> np.ndarray:
    """Smoothed Weiszfeld iteration for the geometric median of ``points``.

    Parameters
    ----------
    points:
        ``(n, d)`` array.
    max_iterations:
        Iteration budget; the iterate after the budget is returned (the
        iteration is a descent method, so the last iterate is the best).
    tolerance:
        Fixed-point stopping threshold on the iterate displacement.
    smoothing:
        Additive distance smoothing preventing division by zero.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidParameterError("points must be a non-empty (n, d) array")
    if points.shape[0] == 1:
        return points[0].copy()
    estimate = points.mean(axis=0)
    for _ in range(max_iterations):
        distances = np.linalg.norm(points - estimate, axis=1) + smoothing
        weights = 1.0 / distances
        updated = (points * weights[:, None]).sum(axis=0) / weights.sum()
        if np.linalg.norm(updated - estimate) <= tolerance:
            return updated
        estimate = updated
    return estimate
