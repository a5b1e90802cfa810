"""Tests for the end-to-end DGD runner."""

import numpy as np
import pytest

from repro.attacks.simple import GradientReverse, RandomGaussian
from repro.exceptions import InvalidParameterError
from repro.optimization.cost_functions import TranslatedQuadratic
from repro.optimization.step_sizes import ConstantStepSize
from repro.optimization.projections import UnconstrainedSet
from repro.system.runner import DGDConfig, run_dgd


class TestBasicExecution:
    def test_fault_free_converges(self):
        costs = [TranslatedQuadratic([2.0, 2.0]) for _ in range(5)]
        trace = run_dgd(costs, None, gradient_filter="average", iterations=200, seed=0)
        assert np.allclose(trace.final_estimate, [2.0, 2.0], atol=1e-3)
        assert trace.iterations == 200
        assert trace.honest_ids == [0, 1, 2, 3, 4]
        assert trace.faulty_ids == []

    def test_trace_shapes(self):
        costs = [TranslatedQuadratic([0.0, 0.0]) for _ in range(4)]
        trace = run_dgd(costs, None, gradient_filter="average", iterations=17, seed=0)
        assert trace.estimates.shape == (18, 2)
        assert trace.directions.shape == (17, 2)
        assert trace.dimension == 2

    def test_distances_and_losses(self):
        costs = [TranslatedQuadratic([1.0, 0.0]) for _ in range(4)]
        trace = run_dgd(costs, None, gradient_filter="average", iterations=50, seed=0)
        distances = trace.distances_to([1.0, 0.0])
        assert distances.shape == (51,)
        assert distances[-1] < distances[0]
        losses = trace.losses(costs)
        assert losses[-1] < losses[0]

    def test_reproducible_given_seed(self):
        costs = [TranslatedQuadratic([1.0, 1.0]) for _ in range(5)]
        a = run_dgd(costs, RandomGaussian(), faulty_ids=[0], gradient_filter="cge",
                    iterations=30, seed=9)
        b = run_dgd(costs, RandomGaussian(), faulty_ids=[0], gradient_filter="cge",
                    iterations=30, seed=9)
        assert np.array_equal(a.estimates, b.estimates)

    def test_network_accounting_positive(self):
        costs = [TranslatedQuadratic([0.0]) for _ in range(3)]
        trace = run_dgd(costs, None, gradient_filter="average", iterations=5, seed=0)
        # Each round: 3 broadcasts + 3 replies.
        assert trace.messages_delivered == 5 * 6
        assert trace.bytes_delivered > 0

    def test_record_messages_flag(self):
        costs = [TranslatedQuadratic([0.0]) for _ in range(3)]
        trace = run_dgd(costs, None, gradient_filter="average", iterations=2,
                        record_messages=True, seed=0)
        assert "network_log" in trace.extra
        assert len(trace.extra["network_log"]) > 0


class TestByzantineExecution:
    def test_cge_beats_average_under_reverse_attack(self, paper):
        x_H = paper.honest_minimizer([1, 2, 3, 4, 5])
        cge = run_dgd(paper.costs, GradientReverse(), faulty_ids=[0],
                      gradient_filter="cge", iterations=400, seed=0)
        avg = run_dgd(paper.costs, GradientReverse(), faulty_ids=[0],
                      gradient_filter="average", iterations=400, seed=0)
        assert np.linalg.norm(cge.final_estimate - x_H) < np.linalg.norm(
            avg.final_estimate - x_H
        )

    def test_filter_instance_accepted(self, paper):
        from repro.aggregators.cge import ComparativeGradientElimination

        trace = run_dgd(paper.costs, GradientReverse(), faulty_ids=[0],
                        gradient_filter=ComparativeGradientElimination(f=1),
                        iterations=20, seed=0)
        assert trace.filter_name == "cge"

    def test_config_object_with_overrides(self, paper):
        config = DGDConfig(iterations=10, gradient_filter="cwtm", faulty_ids=(0,))
        trace = run_dgd(paper.costs, GradientReverse(), config=config, iterations=15)
        assert trace.iterations == 15
        assert trace.filter_name == "cwtm"


class TestValidationAndWarnings:
    def test_faulty_without_behavior_rejected(self, paper):
        with pytest.raises(InvalidParameterError):
            run_dgd(paper.costs, None, faulty_ids=[0], iterations=5)

    def test_faulty_exceeding_f_rejected(self, paper):
        with pytest.raises(InvalidParameterError):
            run_dgd(paper.costs, GradientReverse(), faulty_ids=[0, 1], f=1, iterations=5)

    def test_out_of_range_faulty_rejected(self, paper):
        with pytest.raises(InvalidParameterError):
            run_dgd(paper.costs, GradientReverse(), faulty_ids=[99], iterations=5)

    def test_mismatched_dimensions_rejected(self):
        costs = [TranslatedQuadratic([0.0]), TranslatedQuadratic([0.0, 0.0])]
        with pytest.raises(InvalidParameterError):
            run_dgd(costs, None, iterations=5)

    def test_empty_costs_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_dgd([], None, iterations=5)

    def test_non_robbins_monro_schedule_warns(self, paper):
        with pytest.warns(UserWarning, match="Robbins-Monro"):
            run_dgd(paper.costs, None, iterations=2,
                    step_sizes=ConstantStepSize(0.01), seed=0)

    def test_non_compact_projection_warns(self, paper):
        with pytest.warns(UserWarning, match="compact"):
            run_dgd(paper.costs, None, iterations=2,
                    projection=UnconstrainedSet(2), seed=0)

    def test_announced_f_larger_than_actual_faults(self, paper):
        # f=2 announced but only one actual fault: still runs and converges.
        trace = run_dgd(paper.costs, GradientReverse(), faulty_ids=[0], f=2,
                        gradient_filter="cge", iterations=300, seed=0)
        x_H = paper.honest_minimizer([1, 2, 3, 4, 5])
        assert np.linalg.norm(trace.final_estimate - x_H) < 0.5


class TestCrashFaults:
    def test_crash_agent_detected_and_eliminated(self):
        from repro.problems.linear_regression import make_redundant_regression

        instance = make_redundant_regression(n=6, d=2, f=1, noise_std=0.0, seed=0)
        trace = run_dgd(
            instance.costs, None, gradient_filter="cge",
            crash_rounds={3: 10}, iterations=600, seed=0,
        )
        assert trace.crash_ids == [3]
        assert trace.eliminated == [3]
        assert 3 not in trace.honest_ids
        x_H = instance.honest_minimizer([0, 1, 2, 4, 5])
        assert np.linalg.norm(trace.final_estimate - x_H) < 0.05

    def test_crash_counts_against_fault_budget(self, paper):
        # One adversarial + one crash with f=1 announced: over budget.
        with pytest.raises(InvalidParameterError):
            run_dgd(paper.costs, GradientReverse(), faulty_ids=[0],
                    f=1, crash_rounds={1: 5}, iterations=10)

    def test_adversarial_and_crash_disjoint(self, paper):
        with pytest.raises(InvalidParameterError):
            run_dgd(paper.costs, GradientReverse(), faulty_ids=[0],
                    crash_rounds={0: 5}, iterations=10)

    def test_mixed_adversarial_and_crash_faults(self):
        from repro.problems.linear_regression import make_redundant_regression

        instance = make_redundant_regression(n=8, d=2, f=2, noise_std=0.0, seed=1)
        trace = run_dgd(
            instance.costs, GradientReverse(), faulty_ids=[0],
            crash_rounds={1: 20}, gradient_filter="cge",
            iterations=1500, seed=1,
        )
        assert trace.eliminated == [1]
        x_H = instance.honest_minimizer(range(2, 8))
        assert np.linalg.norm(trace.final_estimate - x_H) < 0.05

    def test_crash_id_out_of_range(self, paper):
        with pytest.raises(InvalidParameterError):
            run_dgd(paper.costs, None, crash_rounds={99: 3}, iterations=5)


class TestConfigOverrides:
    def test_unknown_override_rejected_with_field_list(self, paper):
        with pytest.raises(InvalidParameterError, match="valid fields"):
            run_dgd(paper.costs, None, iterations=5, iteratons=7)

    def test_override_does_not_mutate_base_config(self, paper):
        from repro.system.runner import apply_config_overrides

        base = DGDConfig(iterations=5)
        derived = apply_config_overrides(base, {"seed": 9, "iterations": 3})
        assert base.iterations == 5 and base.seed == 0
        assert derived.iterations == 3 and derived.seed == 9

    def test_empty_overrides_return_config_unchanged(self):
        from repro.system.runner import apply_config_overrides

        base = DGDConfig()
        assert apply_config_overrides(base, {}) is base


class TestNetworkLogCapacity:
    def test_log_capacity_plumbed_from_config(self, paper):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = run_dgd(
                paper.costs, None, iterations=30, record_messages=True,
                log_capacity=50,
            )
        # 30 rounds x 12 deliveries = 360 records against capacity 50.
        assert len(trace.extra["network_log"]) == 50
        assert any("overflowed" in str(w.message) for w in caught)

    def test_no_warning_when_log_fits(self, paper):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = run_dgd(
                paper.costs, None, iterations=5, record_messages=True,
                log_capacity=1000,
            )
        assert len(trace.extra["network_log"]) == 5 * 12
        assert not any("overflowed" in str(w.message) for w in caught)

    def test_network_eviction_counters(self):
        from repro.system.messages import GradientMessage
        from repro.system.netfaults import PartiallySynchronousNetwork

        network = PartiallySynchronousNetwork(log_capacity=3)
        assert network.log_capacity == 3
        for round_index in range(5):
            network.submit(
                GradientMessage(sender=0, round_index=round_index,
                                gradient=np.zeros(2)),
                -1,
                round_index,
            )
            network.collect(-1, round_index)
        assert network.records_evicted == 2
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log = network.log
            network.log  # warn-once: second access stays silent
        assert len(log) == 3
        assert sum("overflowed" in str(w.message) for w in caught) == 1

    def test_invalid_log_capacity_rejected(self):
        from repro.system.netfaults import PartiallySynchronousNetwork

        with pytest.raises(InvalidParameterError):
            PartiallySynchronousNetwork(log_capacity=0)
