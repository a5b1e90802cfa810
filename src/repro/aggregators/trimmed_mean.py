"""Coordinate-Wise Trimmed Mean (CWTM) gradient filter.

For each coordinate ``k``, discard the ``f`` largest and ``f`` smallest
values among the received gradients' ``k``-th entries, and average the
remaining ``n − 2f``. A standard robust-aggregation baseline (Su & Vaidya;
Yin et al.) that the paper's experiments compare CGE against.

Both the scalar and batched paths run through
:func:`repro.aggregators.kernels.partition_trimmed_mean` — a two-pass
single-``kth`` selection that replaces the former full ``np.sort`` (about
2x faster at ``n=1024, d=256``; the ``scale_cwtm_*`` benches track the
ratio). The scalar path is the batched kernel on a singleton batch, which
is what keeps the scalar/batch bit-identity contract true by construction.
"""

from __future__ import annotations

import numpy as np

from repro.aggregators import kernels
from repro.aggregators.base import GradientFilter


class CoordinateWiseTrimmedMean(GradientFilter):
    """CWTM: per-coordinate trimmed mean with symmetric trim count ``f``."""

    name = "cwtm"

    def minimum_inputs(self) -> int:
        # Need at least one value to survive per coordinate.
        return 2 * self._f + 1

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        return kernels.partition_trimmed_mean(gradients[None], self._f)[0]

    def _aggregate_batch(self, tensor: np.ndarray) -> np.ndarray:
        return kernels.partition_trimmed_mean(tensor, self._f)
