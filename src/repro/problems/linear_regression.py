"""Distributed linear regression with 2f-redundancy by design.

The paper's numerical evaluation: each agent ``i`` holds one observation row
``A_i`` (a ``1 × d`` vector) and a scalar observation ``B_i = A_i x* + N_i``
with noise ``N_i``, and defines the local cost ``Q_i(x) = (B_i − A_i x)²``.
The rows are constructed so that **every** ``(n − 2f)``-row submatrix of the
stacked matrix ``A`` has full column rank; with zero noise, every subset
aggregate then minimizes uniquely at ``x*`` — exact 2f-redundancy.

The generator uses a **Vandermonde design** for ``A``: row ``i`` is
``(1, t_i, t_i², ..., t_i^{d-1})`` with distinct Chebyshev nodes ``t_i``.
Any ``d`` rows form a ``d × d`` Vandermonde matrix with distinct nodes,
which is non-singular — so the required rank property holds
*deterministically*, for any ``n``, ``d`` and ``f``, without randomized
search. Chebyshev nodes keep the subset aggregates well conditioned (a
Cauchy design would satisfy the same rank property but with near-parallel
rows, making the strong-convexity constant of honest averages collapse).

Observation noise ``N_i ~ Normal(0, σ²)`` breaks exact redundancy in a
controlled way: the E5 experiment sweeps ``σ`` and measures the induced
redundancy margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.core.geometry import Singleton
from repro.exceptions import InvalidParameterError
from repro.optimization.cost_functions import LeastSquaresCost
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fault_bound, check_vector


@dataclass
class RegressionInstance:
    """A generated distributed linear-regression problem.

    Attributes
    ----------
    A:
        ``(n, d)`` stacked observation rows (agent ``i`` owns row ``i``).
    b:
        ``(n,)`` observations ``A x* + noise``.
    x_star:
        The ground-truth parameter.
    noise_std:
        The σ used to draw the observation noise.
    costs:
        Per-agent :class:`LeastSquaresCost` objects ``(B_i − A_i x)²``.
    """

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    noise_std: float
    costs: List[LeastSquaresCost] = field(repr=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def dimension(self) -> int:
        return self.A.shape[1]

    def honest_minimizer(self, honest: Sequence[int]) -> np.ndarray:
        """Least-squares solution over the given honest agents' rows.

        This is the target ``x_H = argmin Σ_{i ∈ H} Q_i`` the fault-tolerant
        algorithms must estimate.
        """
        honest = sorted(set(int(i) for i in honest))
        if not honest:
            raise InvalidParameterError("honest set must be non-empty")
        sub_A = self.A[honest]
        sub_b = self.b[honest]
        if np.linalg.matrix_rank(sub_A) < self.dimension:
            raise InvalidParameterError(
                "honest rows are rank-deficient; the honest minimizer is not unique"
            )
        solution, *_ = np.linalg.lstsq(sub_A, sub_b, rcond=None)
        return solution

    def honest_argmin_set(self, honest: Sequence[int]) -> Singleton:
        """The honest aggregate's argmin as a geometry object."""
        return Singleton(self.honest_minimizer(honest))


def design_rows(n: int, d: int) -> np.ndarray:
    """Deterministic ``(n, d)`` design with every ``d`` rows independent.

    Row ``i`` is the Vandermonde vector ``(1, t_i, ..., t_i^{d-1})`` at the
    ``i``-th Chebyshev node of ``[-1, 1]``; any ``d`` rows form a
    Vandermonde matrix with distinct nodes and are therefore linearly
    independent. Rows are rescaled to unit norm so agents are comparably
    informative (positive scaling preserves the rank property).
    """
    if n <= 0 or d <= 0:
        raise InvalidParameterError(f"n and d must be positive, got n={n}, d={d}")
    nodes = np.cos((2.0 * np.arange(n) + 1.0) / (2.0 * n) * np.pi)
    A = np.vander(nodes, N=d, increasing=True)
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    return A / norms


@lru_cache(maxsize=64)
def _design_rank_verdict(n: int, d: int, f: int) -> bool:
    """Does :func:`design_rows` ``(n, d)`` pass the rank witness for ``f``?

    The design is deterministic, so the verdict is a pure function of
    ``(n, d, f)`` and is computed once per process per shape.
    """
    from repro.core.redundancy import minimal_subset_rank_condition

    return minimal_subset_rank_condition(design_rows(n, d), f)


def make_redundant_regression(
    n: int,
    d: int,
    f: int,
    x_star=None,
    noise_std: float = 0.0,
    seed: SeedLike = 0,
    verify_rank: bool = True,
) -> RegressionInstance:
    """Generate a regression instance satisfying 2f-redundancy by design.

    Parameters
    ----------
    n, d, f:
        Agents, dimension, and fault bound; requires ``n − 2f >= d`` (the
        minimal subsets must be able to pin down ``x*``).
    x_star:
        Ground truth; defaults to the all-ones vector, matching the paper's
        ``x* = (1, 1)ᵀ`` convention.
    noise_std:
        Observation-noise σ; ``0`` gives exact 2f-redundancy.
    verify_rank:
        Double-check the rank property on every minimal submatrix. The
        verdict is memoized per ``(n, d, f)`` for the life of the process,
        so repeated builds of one shape (a sweep's groups) pay for it once;
        the check grows as ``C(n, n − 2f)``, so disabling it only matters
        for a single build at large ``n``.
    """
    check_fault_bound(n, f)
    if n - 2 * f < d:
        raise InvalidParameterError(
            f"2f-redundancy needs n - 2f >= d; got n={n}, f={f}, d={d}"
        )
    if noise_std < 0:
        raise InvalidParameterError(f"noise_std must be non-negative, got {noise_std}")
    x_star = (
        np.ones(d) if x_star is None else check_vector(x_star, dimension=d, name="x_star")
    )
    A = design_rows(n, d)
    if verify_rank:
        if not _design_rank_verdict(n, d, f):
            raise InvalidParameterError(
                "generated matrix failed the rank check — should be impossible "
                "for a Vandermonde construction"
            )
    rng = ensure_rng(seed)
    noise = rng.normal(scale=noise_std, size=n) if noise_std > 0 else np.zeros(n)
    b = A @ x_star + noise
    costs = [LeastSquaresCost(A[i : i + 1], b[i : i + 1]) for i in range(n)]
    return RegressionInstance(A=A, b=b, x_star=x_star, noise_std=float(noise_std), costs=costs)


def paper_instance(noise_std: float = 0.02, seed: SeedLike = 20200803) -> RegressionInstance:
    """The evaluation configuration of the paper: ``n = 6, f = 1, d = 2``.

    The paper reports its rows and observations only as "omitted for
    brevity"; this reconstruction keeps the stated structure — ``n = 6``
    agents, ``d = 2``, ``x* = (1, 1)ᵀ``, 2f-redundancy by design with
    ``f = 1``, small observation noise — which is what the theory consumes.
    """
    return make_redundant_regression(
        n=6, d=2, f=1, x_star=np.array([1.0, 1.0]), noise_std=noise_std, seed=seed
    )
