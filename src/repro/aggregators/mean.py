"""Non-robust reference aggregators: plain averaging and plain summation.

These implement the *unfiltered* distributed gradient-descent baseline the
paper compares against — a single Byzantine agent can drive them anywhere,
which the attack experiments demonstrate.
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import GradientFilter


class Average(GradientFilter):
    """Arithmetic mean of all received gradients (no robustness)."""

    name = "average"

    def __init__(self, f: int = 0):
        # f is accepted for interface uniformity; averaging ignores it.
        super().__init__(f)

    def minimum_inputs(self) -> int:
        return 1

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        return gradients.mean(axis=0)

    def _aggregate_batch(self, tensor: np.ndarray) -> np.ndarray:
        return tensor.mean(axis=1)


class TrimmedSum(GradientFilter):
    """Sum of all received gradients (the fault-free DGD direction).

    Named for symmetry with CGE, which is exactly this sum after trimming
    the ``f`` largest-norm gradients; with ``f = 0`` CGE and this filter
    coincide, a relationship the property tests pin down.
    """

    name = "sum"

    def minimum_inputs(self) -> int:
        return 1

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        return gradients.sum(axis=0)

    def _aggregate_batch(self, tensor: np.ndarray) -> np.ndarray:
        return tensor.sum(axis=1)
