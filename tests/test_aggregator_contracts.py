"""Registry-wide conformance suite for gradient filters.

Every test in this module parametrizes over :func:`available_filters`,
so a newly registered aggregator is covered automatically — it must
satisfy the :class:`~repro.aggregators.base.GradientFilter` contract
(permutation invariance over honest inputs where applicable,
sanitize equivalence, scalar-vs-singleton-batch bit-identity,
graceful ``f = 0``) the moment
it lands in the registry, with no new test code.

The contract checks are factored into ``_check_*`` helpers so the suite
can also prove it has teeth: ``TestSuiteCatchesViolations`` registers a
deliberately contract-violating dummy aggregator and asserts the same
helpers reject it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.aggregators.registry as aggregator_registry
from repro.aggregators import available_filters, make_filter
from repro.aggregators.base import GradientFilter
from repro.exceptions import InvalidParameterError, UnknownRegistryEntryError

# Instance large enough for every registered filter at f=1
# (Bulyan needs n >= 4f + 3 = 7).
N, D, F = 9, 4, 1

#: Filters whose output legitimately depends on input *order*, with the
#: reason. Everything else must be permutation invariant; add here only
#: with a documented structural justification.
PERMUTATION_EXEMPT = {
    "mom": "partitions rows into blocks by index before the median",
    "gmom": "partitions rows into blocks by index before the median",
    "bulyan": (
        "the shrinking Krum pool ends with single-neighbour scores, where "
        "mutual nearest neighbours tie exactly and argmin breaks by index"
    ),
}


def _honest_matrix(seed, n=N, d=D):
    """Tie-free (continuous) honest gradients — safe for selection filters."""
    return np.random.default_rng(seed).normal(size=(n, d))


def _fresh(name, f=F, registry=None):
    factory = (registry or {}).get(name)
    if factory is not None:
        return factory(f=f)
    return make_filter(name, f=f)


# ----------------------------------------------------------------------
# Contract checks (shared with the violation tests below)
# ----------------------------------------------------------------------


def _check_permutation_invariance(name, seed, registry=None):
    gradients = _honest_matrix(seed)
    rng = np.random.default_rng(seed + 1)
    permuted = gradients[rng.permutation(gradients.shape[0])]
    original = _fresh(name, registry=registry)(gradients)
    shuffled = _fresh(name, registry=registry)(permuted)
    assert np.allclose(original, shuffled, atol=1e-8), (
        f"{name} is not permutation invariant on tie-free honest inputs"
    )


def _check_batch_identity(name, seed, registry=None):
    gradients = _honest_matrix(seed)
    scalar = _fresh(name, registry=registry)(gradients)
    batched = _fresh(name, registry=registry).aggregate_batch(gradients[None])
    assert batched.shape == (1, gradients.shape[1])
    assert np.array_equal(scalar, batched[0]), (
        f"{name}: aggregate_batch on a singleton batch is not bit-identical "
        "to the scalar path"
    )


def _check_sanitize_contract(name, seed, registry=None):
    gradients = _honest_matrix(seed)
    corrupted = gradients.copy()
    corrupted[0, 0] = np.nan
    corrupted[1, 1] = np.inf
    corrupted[2, 0] = -np.inf
    direct = _fresh(name, registry=registry)(corrupted)
    presan = _fresh(name, registry=registry)(
        GradientFilter.sanitize(corrupted)
    )
    assert np.array_equal(direct, presan), (
        f"{name}: aggregating a non-finite matrix differs from aggregating "
        "its sanitized form"
    )
    assert np.all(np.isfinite(direct)), f"{name} produced non-finite output"


def _check_f_zero(name, registry=None):
    gradient_filter = _fresh(name, f=0, registry=registry)
    assert gradient_filter.f == 0
    assert gradient_filter.minimum_inputs() >= 1
    out = gradient_filter(_honest_matrix(7))
    assert out.shape == (D,)
    assert np.all(np.isfinite(out))


# ----------------------------------------------------------------------
# The conformance suite proper
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
@pytest.mark.parametrize("name", available_filters())
def test_permutation_invariance_over_honest_inputs(name, seed):
    if name in PERMUTATION_EXEMPT:
        # Exempt filters still must be invariant under *block-preserving*
        # identity (trivially) — just assert determinism instead.
        gradients = _honest_matrix(seed)
        assert np.array_equal(_fresh(name)(gradients), _fresh(name)(gradients))
        return
    _check_permutation_invariance(name, seed)


@pytest.mark.parametrize("name", available_filters())
def test_scalar_vs_singleton_batch_bit_identity(name):
    for seed in (0, 11, 42):
        _check_batch_identity(name, seed)


@pytest.mark.parametrize("name", available_filters())
def test_sanitize_contract(name):
    _check_sanitize_contract(name, seed=3)


def test_sanitize_identity_and_surrogates():
    finite = _honest_matrix(0)
    assert GradientFilter.sanitize(finite) is finite
    corrupted = np.array([[np.nan, np.inf], [-np.inf, 1.0]])
    cleaned = GradientFilter.sanitize(corrupted, cap=100.0)
    assert cleaned is not corrupted
    assert np.array_equal(cleaned, [[100.0, 100.0], [-100.0, 1.0]])
    # The original is untouched.
    assert np.isnan(corrupted[0, 0])


@pytest.mark.parametrize("name", available_filters())
def test_graceful_f_zero(name):
    _check_f_zero(name)


@pytest.mark.parametrize("name", available_filters())
def test_minimum_inputs_enforced(name):
    gradient_filter = make_filter(name, f=2)
    too_few = _honest_matrix(0, n=max(2, gradient_filter.minimum_inputs() - 1))
    if too_few.shape[0] >= gradient_filter.minimum_inputs():
        pytest.skip(f"{name} accepts any n >= 2")
    with pytest.raises(InvalidParameterError):
        gradient_filter(too_few)


@pytest.mark.parametrize("name", available_filters())
def test_repr_and_f_roundtrip(name):
    gradient_filter = make_filter(name, f=F)
    assert gradient_filter.f == F
    assert "f=" in repr(gradient_filter)


# ----------------------------------------------------------------------
# Registry error structure (unknown lookups)
# ----------------------------------------------------------------------


class TestRegistryErrors:
    def test_unknown_filter_is_structured(self):
        with pytest.raises(UnknownRegistryEntryError) as excinfo:
            make_filter("no-such-filter", f=1)
        err = excinfo.value
        assert err.kind == "filter"
        assert err.name == "no-such-filter"
        assert err.available == tuple(available_filters())
        for name in available_filters():
            assert name in str(err)

    def test_unknown_filter_still_invalid_parameter(self):
        # Existing callers catch InvalidParameterError; the structured
        # subclass must not break them.
        with pytest.raises(InvalidParameterError):
            make_filter("no-such-filter")


# ----------------------------------------------------------------------
# The suite has teeth: a contract-violating dummy must fail it
# ----------------------------------------------------------------------


class _OrderDependentFilter(GradientFilter):
    """Violates permutation invariance: returns the first row."""

    name = "cheat-first-row"

    def _aggregate(self, gradients):
        return np.asarray(gradients[0], dtype=float)


class _BatchMismatchFilter(GradientFilter):
    """Violates batch bit-identity: the batched kernel adds a bias."""

    name = "cheat-batch"

    def _aggregate(self, gradients):
        return gradients.mean(axis=0)

    def _aggregate_batch(self, tensor):
        return tensor.mean(axis=1) + 1e-6


class TestSuiteCatchesViolations:
    """Registering a contract-violating dummy makes the suite fail."""

    def _registry_with(self, cls, monkeypatch):
        registry = dict(aggregator_registry._FACTORIES)
        registry[cls.name] = cls
        monkeypatch.setitem(aggregator_registry._FACTORIES, cls.name, cls)
        assert cls.name in available_filters()
        return registry

    def test_order_dependent_dummy_fails_permutation_check(self, monkeypatch):
        registry = self._registry_with(_OrderDependentFilter, monkeypatch)
        with pytest.raises(AssertionError, match="permutation"):
            _check_permutation_invariance(
                _OrderDependentFilter.name, seed=0, registry=registry
            )

    def test_batch_mismatch_dummy_fails_bit_identity_check(self, monkeypatch):
        registry = self._registry_with(_BatchMismatchFilter, monkeypatch)
        with pytest.raises(AssertionError, match="bit-identical"):
            _check_batch_identity(
                _BatchMismatchFilter.name, seed=0, registry=registry
            )

    def test_registry_restored_after_monkeypatch(self):
        for cls in (_OrderDependentFilter, _BatchMismatchFilter):
            assert cls.name not in available_filters()
