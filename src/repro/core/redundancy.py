"""The 2f-redundancy property (Definition 1) and its quantitative margin.

The paper's central characterization: exact fault-tolerance with up to ``f``
Byzantine agents is achievable **iff** for every pair of subsets
``Ŝ ⊆ S ⊆ {1..n}`` with ``|S| = n − f`` and ``|Ŝ| >= n − 2f``::

    argmin Σ_{i ∈ Ŝ} Q_i  =  argmin Σ_{i ∈ S} Q_i .

This module checks the property exhaustively (or by reproducible sampling
for large systems) and, beyond the boolean answer, measures the *redundancy
margin*: the largest Hausdorff distance between the two argmin sets over all
quantified pairs. A margin of ``0`` is exactly 2f-redundancy; a positive
margin quantifies how badly noise has broken it, which drives the
redundancy-violation experiments (E5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from math import inf
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.geometry import ArgminSet, hausdorff_distance
from repro.exceptions import InvalidParameterError
from repro.optimization.cost_functions import CostFunction
from repro.optimization.gd import solve_argmin
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.subsets import (
    count_redundancy_pairs,
    iter_fixed_size_subsets,
    iter_redundancy_pairs,
)
from repro.utils.validation import check_fault_bound

Subset = Tuple[int, ...]
ArgminSolver = Callable[[Sequence[CostFunction], Subset], ArgminSet]

#: Submatrices ranked per stacked SVD by :func:`minimal_subset_rank_condition`
#: (a block at n=16, d=8, f=3 gathers about 2.6 MB).
_RANK_BLOCK = 4096


def default_solver(costs: Sequence[CostFunction], subset: Subset) -> ArgminSet:
    """Default subset-aggregate argmin solver (closed form when quadratic)."""
    return solve_argmin(costs, indices=subset)


@dataclass
class RedundancyReport:
    """Result of a redundancy check.

    Attributes
    ----------
    n, f:
        System parameters the property was checked against.
    margin:
        Largest Hausdorff distance between inner- and outer-subset argmin
        sets over all checked pairs — the smallest ``ε`` such that the
        checked pairs satisfy an ``ε``-relaxed redundancy. ``0`` means
        exact 2f-redundancy held on every checked pair.
    holds:
        Whether ``margin <= tolerance``.
    tolerance:
        Numerical tolerance used for the boolean verdict.
    worst_pair:
        The ``(S, Ŝ)`` pair realizing the margin.
    pairs_checked:
        Number of pairs evaluated.
    pairs_total:
        Number of pairs the full quantifier ranges over; larger than
        ``pairs_checked`` when sampling was used.
    exhaustive:
        Whether every quantified pair was evaluated.
    per_pair:
        Optional detailed mapping ``(S, Ŝ) → distance`` (populated when
        ``keep_details`` is requested).
    """

    n: int
    f: int
    margin: float
    holds: bool
    tolerance: float
    worst_pair: Optional[Tuple[Subset, Subset]]
    pairs_checked: int
    pairs_total: int
    exhaustive: bool
    per_pair: Dict[Tuple[Subset, Subset], float] = field(default_factory=dict, repr=False)

    def summary(self) -> str:
        """One-line human-readable summary."""
        verdict = "holds" if self.holds else "VIOLATED"
        scope = "exhaustive" if self.exhaustive else f"sampled {self.pairs_checked}/{self.pairs_total}"
        return (
            f"2f-redundancy (n={self.n}, f={self.f}) {verdict}: "
            f"margin={self.margin:.6g} (tol={self.tolerance:g}, {scope})"
        )


def _iterate_pairs(
    n: int, f: int, max_pairs: Optional[int], seed: SeedLike
) -> Tuple[Iterable[Tuple[Subset, Subset]], int, bool]:
    total = count_redundancy_pairs(n, f)
    if max_pairs is None or total <= max_pairs:
        return iter_redundancy_pairs(n, f), total, True
    rng = ensure_rng(seed)
    agents = list(range(n))
    outer_size = n - f
    inner_min = max(n - 2 * f, 1)
    pairs: List[Tuple[Subset, Subset]] = []
    seen = set()
    # Sample outer subsets uniformly, then inner subsets uniformly within.
    while len(pairs) < max_pairs:
        outer = tuple(sorted(rng.choice(n, size=outer_size, replace=False)))
        inner_size = int(rng.integers(inner_min, outer_size))
        positions = rng.choice(outer_size, size=inner_size, replace=False)
        inner = tuple(sorted(outer[p] for p in positions))
        key = (outer, inner)
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs, total, False


def measure_redundancy_margin(
    costs: Sequence[CostFunction],
    f: int,
    solver: Optional[ArgminSolver] = None,
    max_pairs: Optional[int] = 20_000,
    seed: SeedLike = 0,
    keep_details: bool = False,
    tolerance: float = 1e-6,
) -> RedundancyReport:
    """Measure the redundancy margin of ``costs`` for fault bound ``f``.

    Parameters
    ----------
    costs:
        The ``n`` agents' local cost functions (assumed honest — the
        property is about the system design, not an execution).
    f:
        Fault bound; requires ``2 f < n``.
    solver:
        Maps ``(costs, subset)`` to the aggregate's argmin set. Defaults to
        the closed-form/GD hybrid :func:`default_solver`.
    max_pairs:
        Cap on the number of ``(S, Ŝ)`` pairs evaluated; beyond it, a
        reproducible uniform sample is drawn (seeded by ``seed``).
    keep_details:
        Record every pair's distance in :attr:`RedundancyReport.per_pair`.
    tolerance:
        Numerical slack for declaring that the property *holds*.
    """
    costs = list(costs)
    n = len(costs)
    check_fault_bound(n, f)
    if f == 0:
        # No quantified pairs: the property is vacuously exact.
        return RedundancyReport(
            n=n, f=0, margin=0.0, holds=True, tolerance=tolerance,
            worst_pair=None, pairs_checked=0, pairs_total=0, exhaustive=True,
        )
    if solver is None:
        solver = default_solver
    pairs, total, exhaustive = _iterate_pairs(n, f, max_pairs, seed)
    cache: Dict[Subset, ArgminSet] = {}

    def argmin_of(subset: Subset) -> ArgminSet:
        if subset not in cache:
            cache[subset] = solver(costs, subset)
        return cache[subset]

    margin = 0.0
    worst: Optional[Tuple[Subset, Subset]] = None
    details: Dict[Tuple[Subset, Subset], float] = {}
    checked = 0
    for outer, inner in pairs:
        distance = hausdorff_distance(argmin_of(outer), argmin_of(inner))
        checked += 1
        if keep_details:
            details[(outer, inner)] = distance
        if distance > margin:
            margin = distance
            worst = (outer, inner)
    return RedundancyReport(
        n=n,
        f=f,
        margin=margin,
        holds=margin <= tolerance,
        tolerance=tolerance,
        worst_pair=worst,
        pairs_checked=checked,
        pairs_total=total,
        exhaustive=exhaustive,
        per_pair=details,
    )


def check_2f_redundancy(
    costs: Sequence[CostFunction],
    f: int,
    solver: Optional[ArgminSolver] = None,
    tolerance: float = 1e-6,
    max_pairs: Optional[int] = 20_000,
    seed: SeedLike = 0,
) -> bool:
    """Boolean form of Definition 1: does 2f-redundancy hold (within ``tolerance``)?"""
    report = measure_redundancy_margin(
        costs, f, solver=solver, max_pairs=max_pairs, seed=seed, tolerance=tolerance
    )
    return report.holds


def minimal_subset_rank_condition(matrix, f: int) -> bool:
    """Specialized 2f-redundancy witness for consistent least squares.

    For the paper's regression workload with noiseless observations
    ``b = A x*``, 2f-redundancy holds iff every ``(n − 2f)``-row submatrix of
    ``A`` has full column rank (then every subset aggregate minimizes
    uniquely at ``x*``). This check is much cheaper than solving argmins.

    Subsets are visited in lexicographic order, in blocks of at most
    :data:`_RANK_BLOCK`; each block is gathered into one ``(k, n − 2f, d)``
    stack and ranked by a single stacked SVD, whose tolerance is per matrix
    exactly as for a lone ``np.linalg.matrix_rank`` call. The first block
    holding a rank-deficient submatrix ends the check.
    """
    import numpy as np

    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2:
        raise InvalidParameterError("matrix must be 2-D")
    n, d = A.shape
    check_fault_bound(n, f)
    size = n - 2 * f
    if size < d:
        return False
    subsets = iter_fixed_size_subsets(range(n), size)
    while True:
        block = np.fromiter(
            chain.from_iterable(islice(subsets, _RANK_BLOCK)), dtype=np.intp
        ).reshape(-1, size)
        if not len(block):
            return True
        if np.any(np.linalg.matrix_rank(A[block]) < d):
            return False
