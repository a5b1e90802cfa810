"""Tests for CWTM, coordinate-wise median, and geometric median filters."""

import numpy as np
import pytest

from repro.aggregators import kernels
from repro.aggregators.median import CoordinateWiseMedian, GeometricMedian, weiszfeld
from repro.aggregators.trimmed_mean import CoordinateWiseTrimmedMean
from repro.exceptions import InvalidParameterError


class TestCWTM:
    def test_trims_extremes_per_coordinate(self):
        gradients = np.array(
            [[0.0, 100.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [100.0, 0.0]]
        )
        cwtm = CoordinateWiseTrimmedMean(f=1)
        assert np.allclose(cwtm(gradients), [2.0, 2.0])

    def test_f_zero_is_mean(self):
        rng = np.random.default_rng(0)
        gradients = rng.normal(size=(5, 3))
        assert np.allclose(CoordinateWiseTrimmedMean(0)(gradients), gradients.mean(axis=0))

    def test_output_within_coordinate_range_of_inputs(self):
        rng = np.random.default_rng(1)
        gradients = rng.normal(size=(7, 4))
        out = CoordinateWiseTrimmedMean(f=2)(gradients)
        assert np.all(out >= gradients.min(axis=0) - 1e-12)
        assert np.all(out <= gradients.max(axis=0) + 1e-12)

    def test_single_outlier_bounded_influence(self):
        honest = np.zeros((4, 2))
        for magnitude in (10.0, 1e9):
            gradients = np.vstack([honest, [[magnitude, magnitude]]])
            out = CoordinateWiseTrimmedMean(f=1)(gradients)
            assert np.allclose(out, 0.0)

    def test_requires_2f_plus_one(self):
        with pytest.raises(InvalidParameterError):
            CoordinateWiseTrimmedMean(f=2)(np.ones((4, 2)))


class TestPartitionTrimmedMean:
    def test_matches_full_sort_reference(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            K = int(rng.integers(1, 5))
            n = int(rng.integers(3, 40))
            f = int(rng.integers(0, (n - 1) // 2 + 1))
            d = int(rng.integers(1, 12))
            tensor = rng.normal(size=(K, n, d))
            if trial % 3 == 0:  # engineered ties across the trim boundary
                tensor = np.round(tensor)
            if trial % 4 == 0:
                tensor = tensor.astype(np.float32)
            fast = kernels.partition_trimmed_mean(tensor, f)
            reference = kernels.sort_trimmed_mean(tensor, f)
            assert np.allclose(fast, reference, rtol=1e-6, atol=1e-6), (K, n, f, d)

    def test_scalar_path_is_singleton_batch(self):
        # CoordinateWiseTrimmedMean._aggregate == kernel on g[None] — the
        # construction that keeps scalar/batch bit-identity trivially true.
        rng = np.random.default_rng(7)
        gradient_filter = CoordinateWiseTrimmedMean(f=3)
        tensor = rng.normal(size=(6, 20, 5))
        batched = gradient_filter.aggregate_batch(tensor)
        for k in range(tensor.shape[0]):
            assert np.array_equal(batched[k], gradient_filter(tensor[k]))

    def test_lane_determinism_across_batch_sizes(self):
        # A lane's result must not depend on how many other lanes share the
        # call — the property the bit-identity argument rests on.
        rng = np.random.default_rng(99)
        tensor = rng.normal(size=(8, 64, 16))
        whole = kernels.partition_trimmed_mean(tensor, 8)
        for k in range(8):
            alone = kernels.partition_trimmed_mean(tensor[k][None], 8)[0]
            assert np.array_equal(whole[k], alone)

    def test_input_tensor_not_mutated(self):
        tensor = np.random.default_rng(1).normal(size=(2, 10, 3))
        snapshot = tensor.copy()
        kernels.partition_trimmed_mean(tensor, 2)
        assert np.array_equal(tensor, snapshot)


class TestCoordinateWiseMedian:
    def test_matches_numpy_median(self):
        rng = np.random.default_rng(2)
        gradients = rng.normal(size=(9, 3))
        assert np.allclose(
            CoordinateWiseMedian(2)(gradients), np.median(gradients, axis=0)
        )

    def test_majority_controls_output(self):
        gradients = np.vstack([np.ones((3, 2)), 100.0 * np.ones((2, 2))])
        assert np.allclose(CoordinateWiseMedian(2)(gradients), 1.0)


class TestGeometricMedian:
    def test_collinear_points(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        out = GeometricMedian()(points)
        assert out[0] == pytest.approx(1.0, abs=1e-6)
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_configuration_gives_centroid(self):
        points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert np.allclose(GeometricMedian()(points), [0.0, 0.0], atol=1e-8)

    def test_resists_single_far_outlier(self):
        honest = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        gradients = np.vstack([honest, [[1e6, 1e6]]])
        out = GeometricMedian(f=1)(gradients)
        assert np.linalg.norm(out) < 1.0

    def test_single_point(self):
        assert np.allclose(weiszfeld(np.array([[3.0, 4.0]])), [3.0, 4.0])

    def test_iterate_coinciding_with_input_point(self):
        # Mean of these points equals one of them; smoothing must avoid 0/0.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        out = weiszfeld(points)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [0.0, 0.0], atol=1e-6)

    def test_objective_is_minimized(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(10, 3))
        median = weiszfeld(points, max_iterations=500)

        def objective(z):
            return np.linalg.norm(points - z, axis=1).sum()

        base = objective(median)
        for _ in range(20):
            perturbed = median + rng.normal(scale=0.05, size=3)
            assert objective(perturbed) >= base - 1e-6

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            GeometricMedian(max_iterations=0)
        with pytest.raises(InvalidParameterError):
            weiszfeld(np.zeros((0, 2)))
