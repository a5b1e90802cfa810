"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish configuration problems from runtime failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidParameterError(ReproError, ValueError):
    """A parameter value is outside its documented domain.

    Raised, for example, when a fault bound ``f`` is negative, a step-size
    constant is non-positive, or a trim count exceeds what the filter can
    tolerate.
    """


class UnknownRegistryEntryError(InvalidParameterError):
    """A name-based registry lookup failed.

    Raised by :func:`repro.aggregators.registry.make_filter` and
    :func:`repro.attacks.registry.make_attack` when the requested name is
    not registered. Carries the offending :attr:`name` and the sorted
    :attr:`available` names so callers (CLI, tournament engine) can render
    actionable suggestions instead of re-parsing the message string.
    """

    def __init__(self, kind: str, name: str, available):
        self.kind = str(kind)
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown {self.kind} {name!r}; available: {', '.join(self.available)}"
        )


class DimensionMismatchError(ReproError, ValueError):
    """Two arrays that must share a dimension do not.

    Raised when, e.g., a gradient matrix has a different column count than
    the current estimate, or cost functions of different dimensions are
    aggregated.
    """


class InfeasibleConfigurationError(ReproError):
    """The requested system configuration violates a feasibility bound.

    Examples: ``f >= n / 2`` for exact fault-tolerance, ``f >= n / 3`` for
    the peer-to-peer architecture, or ``n < 4 f + 3`` for the Bulyan filter.
    """


class TopologyInfeasibilityError(InfeasibleConfigurationError):
    """A sparse topology cannot honour its per-neighborhood fault budgets.

    Local 2f-redundancy requires each agent's *closed* neighborhood (the
    agent plus its graph neighbors) to outnumber its local fault budget:
    ``deg_i + 1 >= 2 f_i + 1``. Carries the offending agents with their
    degrees and budgets so callers can repair the topology (densify, or
    shrink the budget) instead of parsing a message string.

    Attributes
    ----------
    agents:
        Sorted ids of the agents whose neighborhoods are infeasible.
    degrees:
        ``{agent: degree}`` for the offending agents.
    budgets:
        ``{agent: f_i}`` for the offending agents.
    """

    def __init__(self, agents, degrees, budgets):
        self.agents = sorted(int(i) for i in agents)
        self.degrees = {int(k): int(v) for k, v in dict(degrees).items()}
        self.budgets = {int(k): int(v) for k, v in dict(budgets).items()}
        worst = self.agents[0] if self.agents else None
        detail = (
            f" (e.g. agent {worst}: degree {self.degrees.get(worst)}, "
            f"budget f_i={self.budgets.get(worst)})"
            if worst is not None
            else ""
        )
        super().__init__(
            f"{len(self.agents)} agent(s) violate local 2f-redundancy "
            f"(need degree >= 2 f_i): {self.agents[:10]}"
            f"{'...' if len(self.agents) > 10 else ''}{detail}"
        )


class ConvergenceError(ReproError, RuntimeError):
    """An iterative numerical routine failed to converge.

    Carries the best iterate found so far in :attr:`best` when available so
    callers can decide whether the partial answer is usable.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class CacheIntegrityError(ReproError, RuntimeError):
    """An on-disk cache entry failed its integrity check.

    Raised by :mod:`repro.utils.atomicio` when a stored document is
    truncated, is not valid JSON, or carries a checksum that does not match
    its payload. The sweep engine treats this as "entry absent": the
    corrupt file is discarded and the cell recomputed, so corruption can
    cost time but never poison results.
    """


class BenchSchemaError(ReproError, ValueError):
    """A benchmark document violates the ``repro.bench`` result schema.

    Raised by :mod:`repro.observability.perf.bench_harness` when a
    ``BENCH_*.json`` payload (freshly produced or loaded from the baseline
    store) is missing required fields, carries ill-typed values, or is
    internally inconsistent (e.g. a ``best_seconds`` that is not the
    minimum of its repeats). The regression gate refuses such documents
    instead of comparing against garbage.
    """


class TournamentSchemaError(ReproError, ValueError):
    """A tournament artifact violates the ``repro.tournament`` schema.

    Raised by :mod:`repro.experiments.tournament` when a
    ``TOURNAMENT_*.json`` payload is missing required fields, carries an
    unknown schema tag, or is internally inconsistent. The leaderboard and
    report CLIs refuse such documents instead of rendering garbage.
    """


class ServiceError(ReproError, RuntimeError):
    """The aggregation service (or its client) failed an operation.

    Raised by :mod:`repro.service` for protocol-level failures: a request
    the server rejected, a job that does not exist, a result requested
    before the job finished, or a server that cannot be reached. Carries
    the HTTP-style :attr:`status` code when one applies (0 for transport
    failures) so CLI handlers can map it onto exit codes.
    """

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = int(status)


class AdmissionRejectedError(ServiceError):
    """The service refused to enqueue a job (429-style admission control).

    Structured so clients can react without parsing messages:
    :attr:`reason` is a stable code (``"queue-full"`` or ``"client-cap"``),
    :attr:`limit` the bound that was hit, and :attr:`queue_depth` the
    depth observed at rejection time. The request was not enqueued and is
    safe to retry later.
    """

    def __init__(self, reason: str, detail: str, limit: int, queue_depth: int):
        super().__init__(
            f"job rejected ({reason}): {detail}", status=429
        )
        self.reason = str(reason)
        self.detail = str(detail)
        self.limit = int(limit)
        self.queue_depth = int(queue_depth)


class InjectedFault(ReproError, RuntimeError):
    """A deliberately injected infrastructure fault (chaos testing).

    Raised by the :mod:`repro.system.faultinjection` policies to simulate
    worker crashes and transient failures. Deriving from
    :class:`ReproError` keeps it catchable alongside genuine library
    errors, but production code never raises it.
    """


class ProtocolViolationError(ReproError, RuntimeError):
    """A simulated distributed protocol reached a state its specification forbids.

    This indicates a bug in the simulator (or a deliberately injected fault
    exceeding the tolerated bound), never expected behaviour under the
    documented preconditions.
    """
