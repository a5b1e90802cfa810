"""Tests for repro.core.redundancy — Definition 1 machinery."""

import numpy as np
import pytest

from repro.core.redundancy import (
    check_2f_redundancy,
    measure_redundancy_margin,
    minimal_subset_rank_condition,
)
from repro.exceptions import InfeasibleConfigurationError
from repro.optimization.cost_functions import TranslatedQuadratic
from repro.problems.linear_regression import design_rows, make_redundant_regression


class TestIdenticalCosts:
    """Identical costs are 2f-redundant for every feasible f."""

    def test_identical_quadratics_are_redundant(self):
        costs = [TranslatedQuadratic([1.0, -1.0]) for _ in range(5)]
        assert check_2f_redundancy(costs, f=2)

    def test_margin_is_zero(self):
        costs = [TranslatedQuadratic([0.5, 0.5]) for _ in range(5)]
        report = measure_redundancy_margin(costs, f=1)
        assert report.margin == pytest.approx(0.0, abs=1e-9)
        assert report.holds
        assert report.exhaustive


class TestSpreadCosts:
    """Distinct minimizers break redundancy and the margin quantifies it."""

    def test_spread_targets_violate_redundancy(self):
        costs = [TranslatedQuadratic([float(i), 0.0]) for i in range(5)]
        report = measure_redundancy_margin(costs, f=1)
        assert not report.holds
        assert report.margin > 0.1
        assert report.worst_pair is not None

    def test_margin_scales_with_spread(self):
        small = [TranslatedQuadratic([0.01 * i, 0.0]) for i in range(5)]
        large = [TranslatedQuadratic([1.0 * i, 0.0]) for i in range(5)]
        assert (
            measure_redundancy_margin(small, 1).margin
            < measure_redundancy_margin(large, 1).margin
        )


class TestRegressionInstances:
    def test_noiseless_instance_is_redundant(self, noiseless):
        assert check_2f_redundancy(noiseless.costs, f=1)

    def test_noisy_instance_margin_positive(self, paper):
        report = measure_redundancy_margin(paper.costs, f=1)
        assert not report.holds
        assert 0.0 < report.margin < 0.2

    def test_margin_grows_with_noise(self):
        margins = []
        for sigma in (0.01, 0.1):
            instance = make_redundant_regression(6, 2, 1, noise_std=sigma, seed=0)
            margins.append(measure_redundancy_margin(instance.costs, 1).margin)
        assert margins[0] < margins[1]


class TestEdgeCases:
    def test_f_zero_is_vacuously_redundant(self):
        costs = [TranslatedQuadratic([float(i)]) for i in range(3)]
        report = measure_redundancy_margin(costs, f=0)
        assert report.holds
        assert report.pairs_total == 0

    def test_infeasible_f_rejected(self):
        costs = [TranslatedQuadratic([0.0]) for _ in range(4)]
        with pytest.raises(InfeasibleConfigurationError):
            measure_redundancy_margin(costs, f=2)

    def test_sampling_path(self):
        costs = [TranslatedQuadratic([0.0, 0.0]) for _ in range(12)]
        report = measure_redundancy_margin(costs, f=3, max_pairs=50, seed=1)
        assert not report.exhaustive
        assert report.pairs_checked == 50
        assert report.holds

    def test_keep_details_records_every_pair(self):
        costs = [TranslatedQuadratic([float(i), 0.0]) for i in range(4)]
        report = measure_redundancy_margin(costs, f=1, keep_details=True)
        assert len(report.per_pair) == report.pairs_checked
        assert max(report.per_pair.values()) == pytest.approx(report.margin)

    def test_summary_mentions_verdict(self):
        costs = [TranslatedQuadratic([0.0]) for _ in range(3)]
        assert "holds" in measure_redundancy_margin(costs, 1).summary()


class TestRankCondition:
    def test_design_matrix_passes(self):
        assert minimal_subset_rank_condition(design_rows(6, 2), f=1)

    def test_duplicated_direction_fails(self):
        # Every row identical: no 2-subset has rank 2.
        A = np.tile(np.array([[1.0, 0.0]]), (6, 1))
        assert not minimal_subset_rank_condition(A, f=1)

    def test_too_small_subsets_fail(self):
        # n - 2f < d can never have full column rank.
        assert not minimal_subset_rank_condition(np.eye(5)[:, :4], f=2)


# ----------------------------------------------------------------------
# The batched rank witness against a per-subset oracle (hypothesis)
# ----------------------------------------------------------------------

from itertools import combinations  # noqa: E402
from unittest import mock  # noqa: E402

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.core.redundancy as redundancy  # noqa: E402


def _rank_oracle(A, f):
    """One ``np.linalg.matrix_rank`` call per (n − 2f)-row subset."""
    n, d = A.shape
    size = n - 2 * f
    return size >= d and all(
        np.linalg.matrix_rank(A[list(subset)]) >= d
        for subset in combinations(range(n), size)
    )


def _one_deficient_tail(n, d, seed):
    """Random rows whose only rank-deficient d-subset is the last one.

    The last ``d`` rows lie in a random ``(d − 1)``-dimensional subspace;
    every other ``d`` rows are generic, hence independent.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    A[n - d:] = rng.standard_normal((d, d - 1)) @ rng.standard_normal((d - 1, d))
    return A


@st.composite
def _rank_instances(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    d = draw(st.integers(min_value=1, max_value=4))
    f = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "integer", "duplicated", "deficient"]))
    if kind == "integer":  # small integers: exact singular subsets are common
        A = rng.integers(-1, 2, size=(n, d)).astype(float)
    else:
        A = rng.standard_normal((n, d))
    if kind == "duplicated":
        A[rng.integers(n, size=n // 2)] = A[rng.integers(n)]
    elif kind == "deficient" and d > 1:
        A[:, -1] = A[:, :-1] @ rng.standard_normal(d - 1)
    return A, f


class TestBatchedRankWitness:
    @given(case=_rank_instances(), block=st.sampled_from([1, 2, 3, 7, 4096]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_subset_oracle(self, case, block):
        A, f = case
        with mock.patch.object(redundancy, "_RANK_BLOCK", block):
            assert minimal_subset_rank_condition(A, f) == _rank_oracle(A, f)

    @given(
        n=st.integers(min_value=1, max_value=8),
        d=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_f_zero_is_full_column_rank(self, n, d):
        A = design_rows(n, d)
        assert minimal_subset_rank_condition(A, 0) == (n >= d) == _rank_oracle(A, 0)

    @given(
        n=st.integers(min_value=3, max_value=9),
        f=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_subsets_smaller_than_dimension_fail(self, n, f):
        assume(2 * f < n)
        d = n - 2 * f + 1
        assert not minimal_subset_rank_condition(np.ones((n, d)), f)
        assert not minimal_subset_rank_condition(design_rows(n, d), f)

    @given(
        d=st.integers(min_value=2, max_value=4),
        f=st.integers(min_value=1, max_value=3),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 2, 5, 4096]),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_failure_in_last_block(self, d, f, seed, block):
        A = _one_deficient_tail(d + 2 * f, d, seed)
        healthy = A.copy()
        healthy[-1] = np.random.default_rng(seed + 1).standard_normal(d)
        with mock.patch.object(redundancy, "_RANK_BLOCK", block):
            assert not minimal_subset_rank_condition(A, f)
            assert minimal_subset_rank_condition(healthy, f) == _rank_oracle(healthy, f)

    def test_single_failure_past_the_default_block(self):
        # C(16, 10) = 8008 subsets: two default blocks, failure in the last.
        A = _one_deficient_tail(16, 10, seed=7)
        assert not minimal_subset_rank_condition(A, 3)
        assert not _rank_oracle(A, 3)
        healthy = A.copy()
        healthy[-1] = np.random.default_rng(8).standard_normal(10)
        assert minimal_subset_rank_condition(healthy, 3)
        assert _rank_oracle(healthy, 3)
