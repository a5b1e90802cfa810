"""Pure-numpy batched aggregation kernels.

The gradient filters in this package expose their hot loops as free
functions over ``(K, n, d)`` tensors so that the scalar and batched filter
paths share one implementation — which is what makes the batch engine's
bit-identity contract hold *by construction*. The decentralized engine
calls the same functions on its per-agent neighbourhood tensors.

This module must stay importable with numpy alone (no ``repro.system``
imports): the aggregators sit below the system layer in the package graph.

Determinism notes
-----------------
``np.partition`` with a single ``kth`` and ``np.mean`` along a contiguous
axis are lane-deterministic: the result for one ``(n,)`` lane does not
depend on how many other lanes share the call. That property is what lets
:func:`partition_trimmed_mean` back both ``CoordinateWiseTrimmedMean``
paths — ``_aggregate(g)`` is exactly ``kernel(g[None])[0]`` — while the
batch equivalence suite keeps asserting ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cge_aggregate_batch",
    "cge_kept_indices",
    "cge_kept_indices_batch",
    "mean_batch",
    "partition_trimmed_mean",
    "sort_trimmed_mean",
]


# ----------------------------------------------------------------------
# Coordinate-wise trimmed mean
# ----------------------------------------------------------------------


def sort_trimmed_mean(tensor: np.ndarray, f: int) -> np.ndarray:
    """Reference CWTM kernel: full per-coordinate sort, then slice + mean.

    ``O(K d n log n)``. Kept as the correctness oracle for the optimized
    kernel (the equivalence tests and the ``scale_cwtm_*`` benches compare
    against it) — production code uses :func:`partition_trimmed_mean`.
    """
    if f == 0:
        return tensor.mean(axis=1)
    ordered = np.sort(tensor, axis=1)
    return ordered[:, f : tensor.shape[1] - f].mean(axis=1)


def partition_trimmed_mean(tensor: np.ndarray, f: int) -> np.ndarray:
    """CWTM via two single-``kth`` selections instead of a full sort.

    Only the identity of the ``f`` smallest and ``f`` largest entries per
    coordinate matters, so two ``np.partition`` passes suffice:

    1. transpose to ``(K, d, n)`` and make the trim lanes contiguous —
       numpy's AVX-vectorized introselect only engages on unit-stride
       lanes, and a multi-``kth`` partition falls off that fast path
       entirely (measured ~2.4x slower than a full sort);
    2. partition at ``kth=f``: the ``f`` smallest land in ``[..., :f]``;
    3. partition the remaining suffix at ``kth=n-2f-1``: the ``f``
       largest land past it, leaving the kept multiset in a prefix.

    Both passes partition in place on the private transposed copy, so the
    kernel allocates exactly one ``(K, d, n)`` scratch tensor. ~2x faster
    than :func:`sort_trimmed_mean` at ``n=1024, d=256`` and never slower
    asymptotically (``O(K d n)`` selection vs ``O(K d n log n)`` sort).

    Per-lane results are bit-deterministic regardless of ``K`` (see the
    module docstring), so slicing a batch and re-running one slice gives
    byte-identical output.
    """
    if f == 0:
        return tensor.mean(axis=1)
    n = tensor.shape[1]
    keep = n - 2 * f
    lanes = np.ascontiguousarray(np.swapaxes(tensor, 1, 2))
    lanes.partition(f, axis=2)
    tail = lanes[..., f:]
    tail.partition(keep - 1, axis=2)
    return tail[..., :keep].mean(axis=2)


# ----------------------------------------------------------------------
# Comparative gradient elimination
# ----------------------------------------------------------------------


def cge_kept_indices(matrix: np.ndarray, f: int) -> np.ndarray:
    """Stable kept set of one ``(n, d)`` matrix: ``n - f`` smallest norms.

    Sorting is stable on ``(norm, index)`` so tied norms resolve by agent
    index — the deterministic reading of the paper's "ties broken
    arbitrarily".
    """
    norms = np.linalg.norm(matrix, axis=1)
    order = np.lexsort((np.arange(matrix.shape[0]), norms))
    keep = matrix.shape[0] - f
    return np.sort(order[:keep])


def cge_kept_indices_batch(tensor: np.ndarray, f: int) -> np.ndarray:
    """Kept indices of every run slice: ``(K, n, d)`` → ``(K, n - f)``.

    Fast path: batched norms + ``argpartition`` (O(n) per run instead of
    a full sort). ``argpartition`` breaks norm ties arbitrarily, so any
    run whose cut boundary has tied norms is redone with the stable
    (norm, index) order to match :func:`cge_kept_indices` exactly.
    """
    K, n, _ = tensor.shape
    keep = n - f
    norms = np.linalg.norm(tensor, axis=2)
    if f == 0:
        return np.broadcast_to(np.arange(n), (K, n)).copy()
    part = np.argpartition(norms, keep - 1, axis=1)
    kept = np.sort(part[:, :keep], axis=1)
    boundary = np.take_along_axis(norms, part[:, keep - 1 : keep], axis=1)
    cut = np.take_along_axis(norms, part[:, keep:], axis=1)
    ambiguous = np.flatnonzero((cut <= boundary).any(axis=1))
    for k in ambiguous:
        kept[k] = cge_kept_indices(tensor[k], f)
    return kept


def cge_aggregate_batch(tensor: np.ndarray, f: int, mode: str = "sum") -> np.ndarray:
    """Batched CGE: sum (or mean) of each slice's ``n - f`` smallest-norm rows."""
    kept = cge_kept_indices_batch(tensor, f)
    total = np.take_along_axis(tensor, kept[:, :, None], axis=1).sum(axis=1)
    if mode == "mean":
        return total / kept.shape[1]
    return total


# ----------------------------------------------------------------------
# Mean (the ``scale_mean_*`` benches' baseline kernel)
# ----------------------------------------------------------------------


def mean_batch(tensor: np.ndarray) -> np.ndarray:
    """Per-slice arithmetic mean: ``(K, n, d)`` → ``(K, d)``."""
    return tensor.mean(axis=1)
