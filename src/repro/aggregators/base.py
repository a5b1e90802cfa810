"""Base class shared by all gradient filters."""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.validation import check_matrix


class GradientFilter(abc.ABC):
    """A map from ``n`` received gradients to one aggregate direction.

    Subclasses implement :meth:`_aggregate` on a validated ``(n, d)``
    matrix; the public ``__call__`` handles validation (shape, finiteness of
    what can be checked, and the filter's own feasibility constraints).

    Parameters
    ----------
    f:
        Number of Byzantine inputs the filter is configured to tolerate.
        ``0`` is allowed — most filters then degenerate gracefully (e.g.
        CGE with ``f = 0`` is a plain sum).
    """

    #: Human-readable short name used by the registry and reports.
    name: str = "filter"

    #: Whether the filter carries mutable per-execution state (e.g. a
    #: running reference). Stateful filters cannot be shared across the
    #: replicate runs of a batch, so the batch engine falls back to
    #: sequential execution for them.
    stateful: bool = False

    def __init__(self, f: int = 0):
        f = int(f)
        if f < 0:
            raise InvalidParameterError(f"f must be non-negative, got {f}")
        self._f = f

    @property
    def f(self) -> int:
        """Configured fault tolerance."""
        return self._f

    def minimum_inputs(self) -> int:
        """Smallest ``n`` for which the filter is well defined."""
        return max(2 * self._f + 1, 1)

    def __call__(self, gradients) -> np.ndarray:
        """Aggregate the received gradients.

        Parameters
        ----------
        gradients:
            Array-like of shape ``(n, d)``: one row per agent, Byzantine
            rows included. Rows may contain arbitrary finite values; NaNs
            and infinities are replaced by large-but-finite surrogates so a
            Byzantine agent cannot crash the server with a malformed
            message (the filter's robustness must handle the surrogate like
            any other outlier).

        Returns
        -------
        numpy.ndarray
            The aggregated ``d``-vector.
        """
        matrix = check_matrix(gradients, name="gradients", allow_non_finite=True)
        matrix = self.sanitize(matrix)
        n = matrix.shape[0]
        if n < self.minimum_inputs():
            raise InvalidParameterError(
                f"{type(self).__name__} with f={self._f} requires at least "
                f"{self.minimum_inputs()} gradients, got {n}"
            )
        return self._aggregate(matrix)

    def aggregate_batch(self, gradients, presanitized: bool = False) -> np.ndarray:
        """Aggregate ``K`` stacked gradient matrices in one call.

        Parameters
        ----------
        gradients:
            Array-like of shape ``(K, n, d)``: ``K`` independent ``(n, d)``
            gradient matrices (one per replicate run). Non-finite entries
            are sanitized exactly as in :meth:`__call__`; the tensor is
            cast to float64.
        presanitized:
            Skip the internal :meth:`sanitize` pass. Callers that already
            sanitized the exact tensor they pass in (the batch engine
            sanitizes once per round and shares the result with its
            telemetry records) set this to avoid a redundant scan.

        Returns
        -------
        numpy.ndarray
            ``(K, d)`` array whose ``k``-th row equals
            ``self(gradients[k])`` bit-for-bit. The base implementation
            loops over the slices; filters with a vectorized kernel
            override :meth:`_aggregate_batch`.
        """
        tensor = np.asarray(gradients, dtype=float)
        if tensor.ndim != 3:
            raise InvalidParameterError(
                f"gradients must be a (K, n, d) tensor, got shape {tensor.shape}"
            )
        if tensor.shape[0] == 0:
            raise InvalidParameterError("batch must contain at least one run")
        if not presanitized:
            tensor = self.sanitize(tensor)
        n = tensor.shape[1]
        if n < self.minimum_inputs():
            raise InvalidParameterError(
                f"{type(self).__name__} with f={self._f} requires at least "
                f"{self.minimum_inputs()} gradients, got {n}"
            )
        return self._aggregate_batch(tensor)

    def _aggregate_batch(self, tensor: np.ndarray) -> np.ndarray:
        """Aggregate a validated, finite ``(K, n, d)`` tensor to ``(K, d)``.

        Default: per-slice loop over :meth:`_aggregate`. Overrides must be
        bit-identical to the loop (the equivalence suite enforces this).
        """
        return np.stack([self._aggregate(matrix) for matrix in tensor])

    @staticmethod
    def sanitize(matrix: np.ndarray, cap: float = 1e12) -> np.ndarray:
        """Replace non-finite entries with large finite surrogates.

        A Byzantine sender controls its message bytes, so the server must
        not assume finiteness; mapping ``±inf``/``nan`` to ``±cap`` keeps
        every downstream norm/sort well defined while preserving the
        "extreme outlier" character of the message.
        """
        if np.all(np.isfinite(matrix)):
            return matrix
        cleaned = matrix.copy()
        cleaned[np.isnan(cleaned)] = cap
        cleaned[np.isposinf(cleaned)] = cap
        cleaned[np.isneginf(cleaned)] = -cap
        return cleaned

    @abc.abstractmethod
    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        """Aggregate a validated, finite ``(n, d)`` matrix."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(f={self._f})"
