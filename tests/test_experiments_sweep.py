"""Tests for the parallel sweep executor and its experiment-layer wiring."""

import functools
import json
import os
import warnings

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import run_fault_sweep, run_robustness_matrix, summarize_over_seeds
from repro.experiments.sweep import (
    RegressionGrid,
    SweepEngine,
    derive_run_seeds,
    parallel_map,
    summarize_grid,
)
from repro.problems.linear_regression import design_rows, make_redundant_regression
from repro.system.runner import run_dgd


def _square(x):
    return x * x


def _tiny_fault_sweep(seed):
    return run_fault_sweep(
        fault_counts=(0, 1), iterations=20, filters=("cge",), seed=seed
    )


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seeds(7, 4) == derive_run_seeds(7, 4)

    def test_prefix_stable(self):
        # Growing a sweep must not invalidate already-computed cells.
        assert derive_run_seeds(7, 3) == derive_run_seeds(7, 6)[:3]

    def test_master_seed_matters(self):
        assert derive_run_seeds(7, 3) != derive_run_seeds(8, 3)


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(-20, 20))
        assert parallel_map(_square, items, parallel=True, max_workers=2) == [
            _square(x) for x in items
        ]

    def test_sequential_default(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_unpicklable_worker_falls_back_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = parallel_map(lambda x: x + 1, [1, 2], parallel=True)
        assert result == [2, 3]
        assert any("picklable" in str(w.message) for w in caught)

    def test_empty(self):
        assert parallel_map(_square, [], parallel=True) == []


class TestSweepEngine:
    def test_rejects_bad_backend(self):
        with pytest.raises(InvalidParameterError, match="backend"):
            SweepEngine(backend="gpu")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError, match="max_workers"):
            SweepEngine(max_workers=0)

    def test_grid_matches_direct_run_dgd(self, tmp_path):
        grid = RegressionGrid(
            filters=("cge",), attacks=("gradient-reverse",), fault_counts=(1,),
            num_seeds=2, iterations=30,
        )
        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        cells = engine.run_regression_grid(grid)
        instance = make_redundant_regression(
            n=grid.n, d=grid.d, f=1, noise_std=grid.noise_std, seed=grid.instance_seed
        )
        from repro.attacks.registry import make_attack

        for cell in cells:
            trace = run_dgd(
                instance.costs,
                make_attack("gradient-reverse"),
                gradient_filter="cge",
                faulty_ids=(0,),
                f=1,
                iterations=grid.iterations,
                seed=cell.seed,
            )
            assert np.array_equal(cell.estimates, trace.estimates)

    def test_cache_round_trip(self, tmp_path):
        grid = RegressionGrid(
            filters=("cge", "average"), attacks=("zero",), num_seeds=3, iterations=25
        )
        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        first = engine.run_regression_grid(grid)
        assert not any(cell.cached for cell in first)
        entries = [e for e in os.listdir(tmp_path) if not e.startswith("manifest")]
        assert len(entries) == len(first)
        second = engine.run_regression_grid(grid)
        assert all(cell.cached for cell in second)
        for a, b in zip(first, second):
            assert a.final_error == b.final_error
            assert np.array_equal(a.estimates, b.estimates)

    def test_cache_recomputes_only_changed_cells(self, tmp_path):
        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        base = RegressionGrid(filters=("cge",), attacks=("zero",), num_seeds=2,
                              iterations=25)
        engine.run_regression_grid(base)
        files_before = set(os.listdir(tmp_path))
        grown = RegressionGrid(filters=("cge", "average"), attacks=("zero",),
                               num_seeds=2, iterations=25)
        cells = engine.run_regression_grid(grown)
        by_filter = {c.filter_name: c.cached for c in cells}
        assert by_filter["cge"] is True  # reused
        assert by_filter["average"] is False  # fresh
        assert files_before < set(os.listdir(tmp_path))

    def test_cache_entries_are_json(self, tmp_path):
        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        engine.run_regression_grid(
            RegressionGrid(filters=("cge",), attacks=("zero",), num_seeds=1,
                           iterations=10)
        )
        (entry,) = [e for e in os.listdir(tmp_path) if not e.startswith("manifest")]
        with open(os.path.join(tmp_path, entry)) as handle:
            document = json.load(handle)
        # Entries are checksum-wrapped: {"sha256": ..., "payload": ...}.
        assert document["sha256"]
        payload = document["payload"]
        assert "final_error" in payload and "estimates" in payload

    def test_infeasible_filter_reported_per_cell(self):
        engine = SweepEngine(parallel=False)
        cells = engine.run_regression_grid(
            RegressionGrid(filters=("bulyan",), attacks=("zero",), num_seeds=2,
                           iterations=10)
        )
        assert all(cell.failed for cell in cells)
        assert "Bulyan" in cells[0].error

    def test_parallel_equals_inprocess(self, tmp_path):
        grid = RegressionGrid(
            filters=("cge", "cwtm"), attacks=("gradient-reverse", "sign-flip"),
            num_seeds=2, iterations=25,
        )
        inproc = SweepEngine(parallel=False).run_regression_grid(grid)
        pooled = SweepEngine(parallel=True, max_workers=2).run_regression_grid(grid)
        for a, b in zip(inproc, pooled):
            assert (a.filter_name, a.attack_name, a.f, a.seed) == (
                b.filter_name, b.attack_name, b.f, b.seed
            )
            assert np.array_equal(a.estimates, b.estimates)

    def test_backend_parity(self):
        grid = RegressionGrid(filters=("cge",), attacks=("random",), num_seeds=2,
                              iterations=25)
        batch = SweepEngine(parallel=False, backend="batch").run_regression_grid(grid)
        sequential = SweepEngine(
            parallel=False, backend="sequential"
        ).run_regression_grid(grid)
        for a, b in zip(batch, sequential):
            assert np.array_equal(a.estimates, b.estimates)

    def test_summarize_grid(self):
        cells = SweepEngine(parallel=False).run_regression_grid(
            RegressionGrid(filters=("cge", "bulyan"), attacks=("zero",), num_seeds=2,
                           iterations=10)
        )
        summary = summarize_grid(cells)
        rows = {(row[1], row[2]): row for row in summary.rows}
        assert rows[("bulyan", "zero")][4] == "n/a"
        assert isinstance(rows[("cge", "zero")][4], float)


def _direct_batch(grid, filter_name="cge", attack="gradient-reverse", f=1):
    """One group's traces from run_dgd_batch, without engine or cache."""
    from repro.attacks.registry import make_attack
    from repro.system.batch import run_dgd_batch
    from repro.system.runner import DGDConfig

    instance = make_redundant_regression(
        n=grid.n, d=grid.d, f=grid.resolved_redundancy_f(),
        noise_std=grid.noise_std, seed=grid.instance_seed,
    )
    config = DGDConfig(iterations=grid.iterations, gradient_filter=filter_name,
                       faulty_ids=tuple(range(f)), f=f, x0=grid.x0, seed=0)
    return run_dgd_batch(instance.costs, make_attack(attack), config,
                         seeds=grid.seeds())


class TestArrayPayloads:
    """Cells carry float64 arrays; JSON lists live only in cache entries."""

    GRID = RegressionGrid(filters=("cge",), attacks=("gradient-reverse",),
                          num_seeds=3, iterations=20)

    @staticmethod
    def _assert_float64_equal(cells, traces):
        assert len(cells) == len(traces)
        for cell, trace in zip(cells, traces):
            assert cell.estimates.dtype == np.float64
            assert cell.final_estimate.dtype == np.float64
            assert np.array_equal(cell.estimates, trace.estimates)
            assert np.array_equal(cell.final_estimate, trace.final_estimate)

    def test_cold_cached_and_direct_agree(self, tmp_path):
        direct = _direct_batch(self.GRID)
        cold = SweepEngine(parallel=False, cache_dir=str(tmp_path)
                           ).run_regression_grid(self.GRID)
        cached = SweepEngine(parallel=True, max_workers=2, cache_dir=str(tmp_path)
                             ).run_regression_grid(self.GRID)
        assert not any(c.cached for c in cold) and all(c.cached for c in cached)
        self._assert_float64_equal(cold, direct)
        self._assert_float64_equal(cached, direct)

    def test_worker_payloads_are_float64_arrays(self, tmp_path):
        payloads = []

        def capture(worker):
            def wrapped(task):
                result = worker(task)
                payloads.extend(result)
                return result
            return wrapped

        for _ in range(2):  # cold, then all hits
            SweepEngine(parallel=False, cache_dir=str(tmp_path),
                        worker_wrapper=capture).run_regression_grid(self.GRID)
        states = [p["cache_state"] for p in payloads]
        assert states == ["miss"] * 3 + ["hit"] * 3
        for payload in payloads:
            for name in ("final_estimate", "estimates"):
                assert isinstance(payload[name], np.ndarray)
                assert payload[name].dtype == np.float64

    def test_list_written_entry_reads_back_bit_identically(self, tmp_path):
        # Entries written by the earlier list-payload engine: the payload
        # dict, minus transport fields, with arrays as nested lists.
        from repro.utils.atomicio import write_json_atomic

        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        direct = _direct_batch(self.GRID)
        x_H = make_redundant_regression(
            n=6, d=2, f=1, seed=self.GRID.instance_seed
        ).honest_minimizer(range(1, 6))
        for cell, trace in zip(engine._grid_cells(self.GRID), direct):
            write_json_atomic(
                os.path.join(str(tmp_path), f"{cell['key']}.json"),
                {
                    "final_error": float(np.linalg.norm(trace.final_estimate - x_H)),
                    "final_estimate": trace.final_estimate.tolist(),
                    "estimates": trace.estimates.tolist(),
                },
            )
        cells = engine.run_regression_grid(self.GRID)
        assert all(c.cached for c in cells)
        self._assert_float64_equal(cells, direct)

    def test_instances_do_not_share_design_arrays(self):
        first = make_redundant_regression(n=8, d=2, f=2)
        second = make_redundant_regression(n=8, d=2, f=2)
        assert first.A is not second.A
        first.A[:] = 0.0
        assert np.array_equal(second.A, design_rows(8, 2))

    def test_rank_check_runs_once_per_shape_per_process(self, monkeypatch):
        import repro.core.redundancy as redundancy
        from repro.problems.linear_regression import _design_rank_verdict

        calls = []
        real = redundancy.minimal_subset_rank_condition

        def spy(matrix, f):
            calls.append((np.shape(matrix), f))
            return real(matrix, f)

        monkeypatch.setattr(redundancy, "minimal_subset_rank_condition", spy)
        _design_rank_verdict.cache_clear()
        try:
            for _ in range(3):
                make_redundant_regression(n=7, d=2, f=2)
                make_redundant_regression(n=7, d=2, f=1, noise_std=0.1, seed=4)
            SweepEngine(parallel=False).run_regression_grid(RegressionGrid(
                filters=("cge", "cwtm"), attacks=("zero", "sign-flip"),
                num_seeds=1, n=7, iterations=5,
            ))
        finally:
            _design_rank_verdict.cache_clear()
        assert sorted(calls) == [((7, 2), 1), ((7, 2), 2)]


class TestExperimentWiring:
    def test_robustness_matrix_parallel_matches(self):
        kwargs = dict(filters=("cge", "average"), attacks=("zero",), iterations=20)
        assert (
            run_robustness_matrix(**kwargs).rows
            == run_robustness_matrix(
                **kwargs, parallel=True, backend="batch", max_workers=2
            ).rows
        )

    def test_backend_validated(self):
        with pytest.raises(InvalidParameterError, match="backend"):
            run_robustness_matrix(
                filters=("cge",), attacks=("zero",), iterations=5, backend="magic"
            )

    def test_multiseed_parallel_matches(self):
        sequential = summarize_over_seeds(_tiny_fault_sweep, [1, 2])
        pooled = summarize_over_seeds(
            _tiny_fault_sweep, [1, 2], parallel=True, max_workers=2
        )
        assert sequential.rows == pooled.rows

    def test_multiseed_partial_is_picklable(self):
        make = functools.partial(_tiny_fault_sweep)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summarize_over_seeds(make, [1, 2], parallel=True, max_workers=2)
        assert not any("picklable" in str(w.message) for w in caught)


# ----------------------------------------------------------------------
# Property-based guarantees (hypothesis)
# ----------------------------------------------------------------------

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.experiments.sweep import _cell_cache_payload, _config_hash  # noqa: E402

#: Canonical instance fields as produced by SweepEngine._grid_fields.
BASE_FIELDS = {
    "n": 6,
    "d": 2,
    "redundancy_f": 1,
    "noise_std": 0.0,
    "instance_seed": 20200803,
    "iterations": 300,
    "x0": None,
}


def _key(fields=BASE_FIELDS, filter_name="cge", attack="zero", f=1, seed=0):
    return _config_hash(_cell_cache_payload(fields, filter_name, attack, f, seed))


class TestSeedDerivationProperties:
    """derive_run_seeds is prefix-stable for *every* (master, count) pair,
    not just the handful of examples tested above — growing any sweep must
    preserve every already-cached cell's seed."""

    @given(
        master=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.integers(min_value=0, max_value=40),
        b=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_stability_universal(self, master, a, b):
        lo, hi = sorted((a, b))
        assert derive_run_seeds(master, hi)[:lo] == derive_run_seeds(master, lo)

    @given(
        masters=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=2, max_size=2, unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_masters_give_distinct_streams(self, masters):
        first, second = masters
        assert derive_run_seeds(first, 4) != derive_run_seeds(second, 4)

    @given(
        master=st.integers(min_value=0, max_value=2**32 - 1),
        count=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_seeds_within_a_stream_are_distinct(self, master, count):
        seeds = derive_run_seeds(master, count)
        assert len(set(seeds)) == len(seeds)


class TestCacheKeyProperties:
    """Cache-key hashing is injective over the cell configuration: any
    semantic change produces a new key (no stale hits), and no change —
    including dict insertion order — keeps the key (no spurious misses)."""

    @given(
        field=st.sampled_from(
            ["n", "d", "redundancy_f", "instance_seed", "iterations"]
        ),
        value=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_changing_any_instance_field_changes_key(self, field, value):
        assume(value != BASE_FIELDS[field])
        assert _key({**BASE_FIELDS, field: value}) != _key()

    @given(noise=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_changing_noise_std_changes_key(self, noise):
        assume(noise != 0.0)
        assert _key({**BASE_FIELDS, "noise_std": noise}) != _key()

    @given(
        filter_name=st.sampled_from(["cge", "cwtm", "median", "average"]),
        attack=st.sampled_from(
            ["zero", "random", "sign-flip", "gradient-reverse"]
        ),
        f=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_axis_coordinates_are_injective(self, filter_name, attack, f, seed):
        reference = _key()
        candidate = _key(
            filter_name=filter_name, attack=attack, f=f, seed=seed
        )
        is_same_cell = (filter_name, attack, f, seed) == ("cge", "zero", 1, 0)
        assert (candidate == reference) == is_same_cell

    @given(
        x0=st.one_of(
            st.none(),
            st.lists(
                st.floats(
                    min_value=-100, max_value=100,
                    allow_nan=False, allow_subnormal=False,
                ),
                min_size=1, max_size=4,
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_start_point_distinguishes_keys(self, x0):
        assume(x0 != BASE_FIELDS["x0"])
        assert _key({**BASE_FIELDS, "x0": x0}) != _key()

    @given(order=st.permutations(sorted(BASE_FIELDS)))
    @settings(max_examples=40, deadline=None)
    def test_key_independent_of_field_insertion_order(self, order):
        shuffled = {name: BASE_FIELDS[name] for name in order}
        assert _key(shuffled) == _key()

    def test_default_payload_unchanged(self):
        # A digest recorded by an earlier engine: every cache entry and
        # resume manifest written before must keep resolving to its cell.
        fields = {"n": 6, "d": 2, "redundancy_f": 1, "noise_std": 0.0,
                  "instance_seed": 1, "iterations": 50, "x0": None}
        payload = _cell_cache_payload(fields, "cge", "zero", 1, 7)
        assert _config_hash(payload) == "b0b34d4008d02582f0fce6b9286079a6"


# ----------------------------------------------------------------------
# Cache-entry array records
# ----------------------------------------------------------------------

import base64  # noqa: E402

from hypothesis.extra import numpy as hnp  # noqa: E402

from repro.experiments.sweep import _decode_array, _encode_array  # noqa: E402
from repro.utils.atomicio import read_json_checked, write_json_atomic  # noqa: E402


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _cache_paths(cache_dir):
    return sorted(
        os.path.join(cache_dir, name) for name in os.listdir(cache_dir)
        if name.endswith(".json") and not name.startswith("manifest")
    )


class TestArrayRecords:
    """Entries store float64 arrays as raw little-endian records; decoding
    is bit-exact, and any malformed record reads as a corrupt entry."""

    GRID = RegressionGrid(filters=("cge",), attacks=("gradient-reverse",),
                          num_seeds=2, iterations=15)

    @given(data=st.data(), rows=st.integers(0, 301), cols=st.integers(1, 8),
           matrix=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_bit_exact(self, data, rows, cols, matrix):
        # Raw 64-bit patterns cover every float: -0.0, subnormals, ±inf and
        # NaNs with any sign and payload.
        shape = (rows, cols) if matrix else (cols,)
        bits = data.draw(hnp.arrays(np.uint64, shape,
                                    elements=st.integers(0, 2**64 - 1)))
        record = json.loads(json.dumps(_encode_array(bits.view(np.float64))))
        decoded = _decode_array(record)
        assert decoded.dtype == np.float64 and decoded.shape == shape
        assert decoded.flags.writeable
        assert np.array_equal(_bits(decoded), bits)

    def test_special_values_round_trip(self):
        values = np.array([[-0.0, 5e-324, np.inf], [-np.inf, np.nan, -2.5e-310]])
        assert np.array_equal(_bits(_decode_array(_encode_array(values))),
                              _bits(values))

    @staticmethod
    def _damage(doc, damage):
        record = doc["estimates"]
        if damage == "bad_base64":
            # Characters outside the alphabet: a lenient decoder would skip
            # them, the strict one rejects the record.
            record["b64"] = "!!!!" + record["b64"]
        elif damage == "byte_length":
            raw = base64.b64decode(record["b64"])
            record["b64"] = base64.b64encode(raw[:-8]).decode("ascii")
        elif damage == "dtype":
            record["dtype"] = "<f4"
        elif damage == "negative_shape":
            record["shape"] = [-record["shape"][0], record["shape"][1]]
        elif damage == "float_shape":
            record["shape"] = [float(size) for size in record["shape"]]
        else:  # width
            doc["final_estimate"] = _encode_array(np.zeros(record["shape"][1] + 1))

    DAMAGES = ["bad_base64", "byte_length", "dtype", "negative_shape",
               "float_shape", "width"]

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_entry_reads_corrupt_and_recomputes(self, tmp_path, damage):
        # A valid checksum over a malformed record: the entry reads as
        # cache_corrupt and the recomputed cell is bit-identical.
        cache = str(tmp_path)
        direct = _direct_batch(self.GRID)
        SweepEngine(parallel=False, cache_dir=cache).run_regression_grid(self.GRID)
        path = _cache_paths(cache)[0]
        doc = read_json_checked(path)
        self._damage(doc, damage)
        write_json_atomic(path, doc)
        engine = SweepEngine(parallel=False, cache_dir=cache)
        cells = engine.run_regression_grid(self.GRID)
        counts = engine.events.counts()
        assert counts["cache_corrupt"] == 1 and counts["cache_hit"] == 1
        TestArrayPayloads._assert_float64_equal(cells, direct)
        for cell, trace in zip(cells, direct):
            assert np.array_equal(_bits(cell.estimates), _bits(trace.estimates))

    def test_entry_holds_records_not_lists(self, tmp_path):
        SweepEngine(parallel=False, cache_dir=str(tmp_path)).run_regression_grid(self.GRID)
        for path in _cache_paths(str(tmp_path)):
            doc = read_json_checked(path, require_checksum=True)
            assert doc["estimates"]["dtype"] == "<f8"
            assert doc["estimates"]["shape"] == [self.GRID.iterations + 1, self.GRID.d]
            assert doc["final_estimate"]["shape"] == [self.GRID.d]

    def test_list_entries_resume_next_to_record_entries(self, tmp_path):
        # A cache filled partly by the earlier list-writing engine and partly
        # by this one: a resume serves every cell from either form.
        cache = str(tmp_path)
        grid = RegressionGrid(filters=("cge",), attacks=("gradient-reverse",),
                              num_seeds=4, iterations=15)
        direct = _direct_batch(grid)
        SweepEngine(parallel=False, cache_dir=cache).run_regression_grid(grid)
        paths = _cache_paths(cache)
        for path in paths[::2]:
            doc = read_json_checked(path)
            for name in ("final_estimate", "estimates"):
                doc[name] = _decode_array(doc[name]).tolist()
            write_json_atomic(path, doc)
        engine = SweepEngine(parallel=False, cache_dir=cache)
        cells = engine.resume(grid)
        assert engine.events.counts()["cache_hit"] == grid.num_seeds
        assert engine.events.counts().get("cache_miss", 0) == 0
        TestArrayPayloads._assert_float64_equal(cells, direct)
