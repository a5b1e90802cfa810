"""Compact convex constraint sets ``W`` and their metric projections.

The paper constrains the server's iterates to a compact convex set
``W ⊂ R^d`` via the projection ``[x]_W = argmin_{y ∈ W} ||x − y||``
(unique because ``W`` is convex and closed). Box and ball sets have exact
closed-form projections; intersections are handled with Dykstra's
alternating-projection algorithm.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConvergenceError, DimensionMismatchError, InvalidParameterError
from repro.utils.validation import check_vector


class ConvexSet(abc.ABC):
    """A closed convex subset of ``R^d`` supporting metric projection."""

    def __init__(self, dimension: int, compact: bool):
        if dimension <= 0:
            raise InvalidParameterError(f"dimension must be positive, got {dimension}")
        self._dimension = int(dimension)
        self._compact = bool(compact)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def is_compact(self) -> bool:
        """Whether the set is bounded (required by the convergence theorem)."""
        return self._compact

    @abc.abstractmethod
    def project(self, x) -> np.ndarray:
        """The unique nearest point ``[x]_W``."""

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether ``x`` lies in the set (within ``tol``)."""
        x = check_vector(x, dimension=self._dimension, name="x")
        return bool(np.linalg.norm(self.project(x) - x) <= tol)

    def diameter(self) -> float:
        """An upper bound on ``sup_{x,y ∈ W} ||x − y||`` when compact."""
        raise NotImplementedError

    def _check(self, x) -> np.ndarray:
        return check_vector(x, dimension=self._dimension, name="x")


class UnconstrainedSet(ConvexSet):
    """All of ``R^d`` — projection is the identity.

    Not compact: using it voids the convergence theorem's precondition, and
    the simulation surfaces a warning when it is chosen.
    """

    def __init__(self, dimension: int):
        super().__init__(dimension, compact=False)

    def project(self, x) -> np.ndarray:
        return self._check(x).copy()

    def __repr__(self) -> str:
        return f"UnconstrainedSet(d={self.dimension})"


class BoxSet(ConvexSet):
    """Axis-aligned box ``{x : lower <= x <= upper}`` (component-wise)."""

    def __init__(self, lower, upper):
        lower = check_vector(lower, name="lower")
        upper = check_vector(upper, dimension=lower.shape[0], name="upper")
        if np.any(lower > upper):
            raise InvalidParameterError("lower bound exceeds upper bound in some coordinate")
        super().__init__(lower.shape[0], compact=True)
        self._lower = lower
        self._upper = upper

    @classmethod
    def centered(cls, dimension: int, half_width: float) -> "BoxSet":
        """The symmetric box ``[−half_width, half_width]^d``."""
        if half_width <= 0:
            raise InvalidParameterError(f"half_width must be positive, got {half_width}")
        bound = np.full(dimension, float(half_width))
        return cls(-bound, bound)

    @property
    def lower(self) -> np.ndarray:
        return self._lower.copy()

    @property
    def upper(self) -> np.ndarray:
        return self._upper.copy()

    def project(self, x) -> np.ndarray:
        x = self._check(x)
        return np.clip(x, self._lower, self._upper)

    def diameter(self) -> float:
        return float(np.linalg.norm(self._upper - self._lower))

    def __repr__(self) -> str:
        return f"BoxSet(d={self.dimension})"


class BallSet(ConvexSet):
    """Euclidean ball ``{x : ||x − center|| <= radius}``."""

    def __init__(self, center, radius: float):
        center = check_vector(center, name="center")
        radius = float(radius)
        if radius <= 0:
            raise InvalidParameterError(f"radius must be positive, got {radius}")
        super().__init__(center.shape[0], compact=True)
        self._center = center
        self._radius = radius

    @property
    def center(self) -> np.ndarray:
        return self._center.copy()

    @property
    def radius(self) -> float:
        return self._radius

    def project(self, x) -> np.ndarray:
        x = self._check(x)
        delta = x - self._center
        norm = float(np.linalg.norm(delta))
        if norm <= self._radius:
            return x.copy()
        return self._center + delta * (self._radius / norm)

    def diameter(self) -> float:
        return 2.0 * self._radius

    def __repr__(self) -> str:
        return f"BallSet(d={self.dimension}, r={self._radius})"


class HalfSpace(ConvexSet):
    """Half-space ``{x : ⟨normal, x⟩ <= offset}`` (not compact on its own)."""

    def __init__(self, normal, offset: float):
        normal = check_vector(normal, name="normal")
        norm = float(np.linalg.norm(normal))
        if norm == 0.0:
            raise InvalidParameterError("normal must be non-zero")
        super().__init__(normal.shape[0], compact=False)
        self._normal = normal / norm
        self._offset = float(offset) / norm

    def project(self, x) -> np.ndarray:
        x = self._check(x)
        violation = float(self._normal @ x) - self._offset
        if violation <= 0:
            return x.copy()
        return x - violation * self._normal

    def __repr__(self) -> str:
        return f"HalfSpace(d={self.dimension})"


class IntersectionSet(ConvexSet):
    """Intersection of convex sets, projected via Dykstra's algorithm.

    Dykstra's algorithm (unlike plain alternating projection) converges to
    the *metric projection* onto the intersection, which is what the DGD
    update rule requires.
    """

    def __init__(self, members: Sequence[ConvexSet], max_iterations: int = 200, tol: float = 1e-10):
        members = list(members)
        if not members:
            raise InvalidParameterError("IntersectionSet requires at least one member")
        dimension = members[0].dimension
        for member in members:
            if member.dimension != dimension:
                raise DimensionMismatchError("all members must share one dimension")
        super().__init__(dimension, compact=any(m.is_compact for m in members))
        self._members = members
        self._max_iterations = int(max_iterations)
        self._tol = float(tol)

    @property
    def members(self) -> Sequence[ConvexSet]:
        return list(self._members)

    def project(self, x) -> np.ndarray:
        x = self._check(x)
        if len(self._members) == 1:
            return self._members[0].project(x)
        current = x.copy()
        corrections = [np.zeros_like(x) for _ in self._members]
        for _ in range(self._max_iterations):
            previous = current.copy()
            for index, member in enumerate(self._members):
                candidate = current + corrections[index]
                projected = member.project(candidate)
                corrections[index] = candidate - projected
                current = projected
            if np.linalg.norm(current - previous) <= self._tol:
                return current
        if all(member.contains(current, tol=1e-6) for member in self._members):
            return current
        raise ConvergenceError(
            "Dykstra projection did not converge; the intersection may be empty",
            best=current,
        )

    def __repr__(self) -> str:
        return f"IntersectionSet(k={len(self._members)}, d={self.dimension})"


def numpy_batch_projector(projection: ConvexSet) -> Callable[[np.ndarray], np.ndarray]:
    """A map projecting each row of a ``(K, d)`` matrix onto ``projection``.

    Bit-identical to ``projection.project`` row by row: closed-form for
    boxes, balls and ``R^d``, a per-row loop for every other set. The ball
    norms come from a stacked ``(1, d) @ (d, 1)`` matmul, which evaluates
    the same dot product ``np.linalg.norm`` takes on one vector;
    ``np.linalg.norm(..., axis=1)`` sums the squares in a different order.
    """
    if isinstance(projection, BoxSet):
        lower, upper = projection.lower, projection.upper
        return lambda X: np.clip(X, lower, upper)
    if isinstance(projection, UnconstrainedSet):
        return lambda X: X
    if isinstance(projection, BallSet):
        center, radius = projection.center, projection.radius

        def project_ball(X: np.ndarray) -> np.ndarray:
            delta = X - center
            norms = np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
            outside = norms > radius
            if np.any(outside):
                X = X.copy()
                scales = radius / norms[outside]
                X[outside] = center + delta[outside] * scales[:, None]
            return X

        return project_ball
    return lambda X: np.stack([projection.project(row) for row in X])
