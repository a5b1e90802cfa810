"""Grid-level chaos tests: the sweep engine under injected infrastructure faults.

The contract under test: whatever the infrastructure does — workers
raising, worker processes dying, chunks hanging, cache entries corrupted,
runs killed mid-grid — every cell the engine reports as succeeded is
bit-identical to a fault-free sequential run, persistent failures are
quarantined instead of aborting the grid, and ``resume()`` recomputes only
the cells that never completed (proven by event-log cache-hit counts).
"""

import os
import shutil

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.sweep import RegressionGrid, SweepEngine, summarize_grid
from repro.system.faultinjection import (
    CrashOnCalls,
    FailEveryNth,
    FailMatching,
    FailOnCalls,
    FaultyWorker,
    HangOnCalls,
    corrupt_cache_entry,
)

GRID = RegressionGrid(
    filters=("cge", "average"),
    attacks=("gradient-reverse", "zero"),
    num_seeds=2,
    iterations=20,
)


@pytest.fixture(scope="module")
def reference_cells():
    """Fault-free, sequential, uncached execution — the ground truth."""
    return SweepEngine(parallel=False, retries=0).run_regression_grid(GRID)


def assert_cells_equal(cells, reference):
    assert len(cells) == len(reference)
    for cell, ref in zip(cells, reference):
        assert (cell.filter_name, cell.attack_name, cell.f, cell.seed) == (
            ref.filter_name, ref.attack_name, ref.f, ref.seed
        )
        assert not cell.failed, cell.error
        assert cell.final_error == ref.final_error
        assert np.array_equal(cell.estimates, ref.estimates)


def cache_entries(cache_dir):
    return sorted(
        name for name in os.listdir(cache_dir)
        if name.endswith(".json") and not name.startswith("manifest")
    )


class TestChaosGrids:
    def test_transient_worker_failures_bit_identical(self, tmp_path,
                                                     reference_cells):
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=4, retry_backoff=0.01,
            chunk_size=1,
            worker_wrapper=lambda w: FaultyWorker(
                w, [FailEveryNth(4)], counter_dir=str(tmp_path / "calls")
            ),
        )
        cells = engine.run_regression_grid(GRID)
        assert_cells_equal(cells, reference_cells)
        counts = engine.events.counts()
        assert counts.get("chunk_retry", 0) >= 1
        assert "quarantine" not in counts

    def test_worker_process_crash_bit_identical(self, tmp_path, reference_cells):
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=4, retry_backoff=0.01,
            chunk_size=1,
            worker_wrapper=lambda w: FaultyWorker(
                w, [CrashOnCalls((0,))], counter_dir=str(tmp_path / "calls")
            ),
        )
        cells = engine.run_regression_grid(GRID)
        assert_cells_equal(cells, reference_cells)
        counts = engine.events.counts()
        assert counts.get("chunk_crash", 0) >= 1
        assert counts.get("pool_rebuild", 0) >= 1

    def test_hung_chunk_times_out_bit_identical(self, tmp_path, reference_cells):
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=4, retry_backoff=0.01,
            chunk_size=1, timeout=1.5,
            worker_wrapper=lambda w: FaultyWorker(
                w, [HangOnCalls((0,), duration=6.0)],
                counter_dir=str(tmp_path / "calls"),
            ),
        )
        cells = engine.run_regression_grid(GRID)
        assert_cells_equal(cells, reference_cells)
        counts = engine.events.counts()
        assert counts.get("chunk_timeout", 0) >= 1
        assert counts.get("pool_rebuild", 0) >= 1

    def test_persistent_failure_quarantined_inprocess(self, reference_cells):
        engine = SweepEngine(
            parallel=False, retries=1, retry_backoff=0.01,
            worker_wrapper=lambda w: FaultyWorker(
                w, [FailMatching("'filter': 'average'")]
            ),
        )
        cells = engine.run_regression_grid(GRID)
        good = [c for c in cells if c.filter_name == "cge"]
        bad = [c for c in cells if c.filter_name == "average"]
        assert_cells_equal(
            good, [c for c in reference_cells if c.filter_name == "cge"]
        )
        assert all(c.failed and c.quarantined for c in bad)
        assert all("quarantined" in c.error for c in bad)
        assert engine.events.counts()["quarantine"] >= 1
        # The grid still summarizes; quarantined groups render as n/a.
        rows = {(r[1], r[2]): r for r in summarize_grid(cells).rows}
        assert rows[("average", "zero")][4] == "n/a"
        assert isinstance(rows[("cge", "zero")][4], float)

    def test_persistent_failure_degrades_then_quarantines_in_pool(
        self, reference_cells
    ):
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=1, retry_backoff=0.01,
            chunk_size=1,
            worker_wrapper=lambda w: FaultyWorker(
                w, [FailMatching("'filter': 'average'")]
            ),
        )
        cells = engine.run_regression_grid(GRID)
        good = [c for c in cells if c.filter_name == "cge"]
        bad = [c for c in cells if c.filter_name == "average"]
        assert_cells_equal(
            good, [c for c in reference_cells if c.filter_name == "cge"]
        )
        assert all(c.failed and c.quarantined for c in bad)
        counts = engine.events.counts()
        assert counts.get("chunk_degraded", 0) >= 1
        assert counts.get("quarantine", 0) >= 1


class TestCacheIntegrity:
    TINY = RegressionGrid(filters=("cge",), attacks=("zero",), num_seeds=2,
                          iterations=15)

    @pytest.mark.parametrize("mode", ["truncate", "bitflip", "garbage"])
    def test_corrupt_entry_recomputed_not_poisoned(self, tmp_path, mode):
        cache = str(tmp_path / f"cache-{mode}")
        reference = SweepEngine(
            parallel=False, cache_dir=cache
        ).run_regression_grid(self.TINY)
        corrupt_cache_entry(cache, index=0, mode=mode, seed=1)
        engine = SweepEngine(parallel=False, cache_dir=cache)
        cells = engine.run_regression_grid(self.TINY)
        assert_cells_equal(cells, reference)
        counts = engine.events.counts()
        assert counts["cache_corrupt"] == 1
        assert counts["cache_hit"] == len(reference) - 1
        # The corrupt entry was rewritten: a third run is all hits.
        engine3 = SweepEngine(parallel=False, cache_dir=cache)
        engine3.run_regression_grid(self.TINY)
        assert engine3.events.counts()["cache_hit"] == len(reference)

    def test_legacy_unchecksummed_entries_still_hit(self, tmp_path):
        # Entries written by the pre-hardening engine (bare payloads) must
        # keep serving hits rather than being recomputed wholesale.
        import json

        cache = str(tmp_path / "cache")
        engine = SweepEngine(parallel=False, cache_dir=cache)
        first = engine.run_regression_grid(self.TINY)
        for name in cache_entries(cache):
            path = os.path.join(cache, name)
            payload = json.loads(open(path).read())["payload"]
            with open(path, "w") as handle:
                json.dump(payload, handle)
        engine2 = SweepEngine(parallel=False, cache_dir=cache)
        cells = engine2.run_regression_grid(self.TINY)
        assert_cells_equal(cells, first)
        assert engine2.events.counts()["cache_hit"] == len(first)

    @pytest.mark.parametrize("damage", ["ragged", "wide", "text", "flat"])
    def test_checksummed_malformed_entry_recomputed(self, tmp_path, damage):
        # A valid checksum over a malformed document must not reach the
        # parent's array conversion: the entry reads as corrupt instead.
        from repro.experiments.sweep import _decode_array
        from repro.utils.atomicio import read_json_checked, write_json_atomic

        cache = str(tmp_path / "cache")
        reference = SweepEngine(
            parallel=False, cache_dir=cache
        ).run_regression_grid(self.TINY)
        path = os.path.join(cache, cache_entries(cache)[0])
        doc = read_json_checked(path)
        # The damage is done to the list form of the entry (nested lists,
        # as earlier versions wrote it), which stays a supported read format.
        for name in ("final_estimate", "estimates"):
            doc[name] = _decode_array(doc[name]).tolist()
        if damage == "ragged":
            doc["estimates"][3] = [1.0]
        elif damage == "wide":
            doc["estimates"] = [row + [0.0] for row in doc["estimates"]]
        elif damage == "text":
            doc["estimates"][0][0] = "1.0"
        else:
            doc["estimates"] = doc["final_estimate"]
        write_json_atomic(path, doc)
        engine = SweepEngine(parallel=False, cache_dir=cache)
        cells = engine.run_regression_grid(self.TINY)
        assert_cells_equal(cells, reference)
        counts = engine.events.counts()
        assert counts["cache_corrupt"] == 1
        assert counts["cache_hit"] == len(reference) - 1


class TestResume:
    def test_resume_recomputes_only_missing_cells(self, tmp_path,
                                                  reference_cells):
        cache = str(tmp_path / "cache")
        SweepEngine(parallel=False, cache_dir=cache).run_regression_grid(GRID)
        entries = cache_entries(cache)
        killed = entries[:3]  # simulate a run killed before these completed
        for name in killed:
            os.remove(os.path.join(cache, name))
        engine = SweepEngine(parallel=False, cache_dir=cache)
        progress = engine.grid_progress(GRID)
        assert progress["total"] == len(reference_cells)
        assert progress["completed"] == len(reference_cells) - len(killed)
        cells = engine.resume(GRID)
        assert_cells_equal(cells, reference_cells)
        counts = engine.events.counts()
        assert counts["resume"] == 1
        assert counts["cache_hit"] == len(reference_cells) - len(killed)
        assert counts["cache_miss"] == len(killed)
        # After resume the grid is complete: a further resume is all hits.
        engine2 = SweepEngine(parallel=False, cache_dir=cache)
        engine2.resume(GRID)
        assert engine2.events.counts()["cache_hit"] == len(reference_cells)
        assert engine2.events.counts().get("cache_miss", 0) == 0

    def test_resume_requires_cache_dir(self):
        with pytest.raises(InvalidParameterError, match="cache_dir"):
            SweepEngine(parallel=False).resume(GRID)

    def test_manifest_written_with_grid_inventory(self, tmp_path):
        cache = str(tmp_path / "cache")
        engine = SweepEngine(parallel=False, cache_dir=cache)
        engine.run_regression_grid(self_grid := TestCacheIntegrity.TINY)
        from repro.utils.atomicio import read_json_checked

        manifest = read_json_checked(engine.manifest_path(self_grid))
        assert manifest["grid"]["num_seeds"] == self_grid.num_seeds
        assert len(manifest["cells"]) == self_grid.num_seeds
        assert manifest["failed"] == []


class TestAcceptanceScenario:
    """ISSUE 2 acceptance: crashes + a hang + a corrupt cache entry, at once."""

    GRID = RegressionGrid(
        filters=("cge", "average", "median"),
        attacks=("gradient-reverse", "zero"),
        num_seeds=2,
        iterations=20,
    )

    def test_chaos_sweep_completes_bit_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        # Fault-free sequential seeding run: ground truth + warm cache.
        reference = SweepEngine(
            parallel=False, cache_dir=cache
        ).run_regression_grid(self.GRID)
        corrupt_cache_entry(cache, index=2, mode="bitflip", seed=7)

        # Chaos pass: 1-in-5 worker raises, one hard process crash, one
        # hung chunk, against the damaged cache. retries=4 covers the
        # worst case where every injected fault lands on the same chunk.
        policies = [
            FailEveryNth(5),
            CrashOnCalls((3,)),
            HangOnCalls((2,), duration=6.0),
        ]
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=4, retry_backoff=0.01,
            chunk_size=1, timeout=1.5, cache_dir=cache,
            events=str(tmp_path / "events.jsonl"),
            worker_wrapper=lambda w: FaultyWorker(
                w, policies, counter_dir=str(tmp_path / "calls")
            ),
        )
        cells = engine.run_regression_grid(self.GRID)

        # Every cell completed (nothing quarantined) and is bit-identical
        # to the fault-free run.
        assert_cells_equal(cells, reference)
        counts = engine.events.counts()
        assert "quarantine" not in counts
        # The faults really fired and were really survived...
        disruptions = (
            counts.get("chunk_retry", 0)
            + counts.get("chunk_timeout", 0)
            + counts.get("chunk_crash", 0)
        )
        assert disruptions >= 2
        assert counts.get("pool_rebuild", 0) >= 1
        # ...and the corrupted entry was the only recomputation.
        assert counts["cache_corrupt"] == 1
        assert counts["cache_hit"] == len(reference) - 1
        # The JSONL mirror survives for post-mortems.
        from repro.experiments.sweep import SweepEvents

        assert SweepEvents.load(str(tmp_path / "events.jsonl")) == engine.events.records


class TestRoundHookInjection:
    """Mid-execution fault injection through run_dgd_batch's round hook."""

    def test_raising_hook_aborts_then_clean_rerun_is_bit_identical(self):
        from repro.exceptions import InjectedFault
        from repro.problems.linear_regression import make_redundant_regression
        from repro.system.batch import run_dgd_batch
        from repro.system.runner import DGDConfig

        instance = make_redundant_regression(n=6, d=2, f=1, noise_std=0.0, seed=1)
        config = DGDConfig(iterations=30, gradient_filter="cge", f=1,
                           faulty_ids=(0,), seed=0)
        from repro.attacks.registry import make_attack

        behavior = make_attack("gradient-reverse")
        seen = []

        def hook(t):
            seen.append(t)
            if t == 9:
                raise InjectedFault("mid-run fault")

        with pytest.raises(InjectedFault):
            run_dgd_batch(instance.costs, behavior, config, seeds=[1, 2],
                          round_hook=hook)
        assert seen == list(range(10))
        # A clean re-execution is unaffected by the aborted attempt.
        clean = run_dgd_batch(instance.costs, behavior, config, seeds=[1, 2])
        again = run_dgd_batch(instance.costs, behavior, config, seeds=[1, 2])
        for a, b in zip(clean, again):
            assert np.array_equal(a.estimates, b.estimates)

    def test_hook_sees_every_round(self):
        from repro.problems.linear_regression import make_redundant_regression
        from repro.system.batch import run_dgd_batch
        from repro.system.runner import DGDConfig

        instance = make_redundant_regression(n=4, d=2, f=1, noise_std=0.0, seed=1)
        rounds = []
        run_dgd_batch(instance.costs, None,
                      DGDConfig(iterations=12, gradient_filter="average"),
                      seeds=[0], round_hook=rounds.append)
        assert rounds == list(range(12))


class _FakeDoneFuture:
    """A future that is already done; ``result()`` replays its outcome."""

    def __init__(self, value=None, exc=None):
        self._value = value
        self._exc = exc

    def done(self):
        return True

    def result(self, timeout=None):
        if self._exc is not None:
            raise self._exc
        return self._value


class _ScriptedPool:
    """Fake executor: per-chunk scripted outcomes, synchronous execution.

    ``script`` maps a chunk's first item to either an exception instance
    (``result()`` raises it) or ``None`` (compute the chunk for real).
    The script applies to this pool only — a rebuilt pool gets a fresh
    (usually empty) script, which is exactly how a transient
    infrastructure fault looks to the failure ladder.
    """

    def __init__(self, script):
        self._script = dict(script)

    def submit(self, fn, worker, chunk):
        outcome = self._script.get(chunk[0])
        if isinstance(outcome, BaseException):
            return _FakeDoneFuture(exc=outcome)
        try:
            return _FakeDoneFuture(value=fn(worker, chunk))
        except BaseException as exc:  # surfaces at result(), like a real pool
            return _FakeDoneFuture(exc=exc)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _times_ten(x):
    return x * 10


def _fail_on_one(x):
    if x == 1:
        raise ValueError("always fails")
    return x * 10


class TestSalvagePathChargesFailures:
    """Regression: the pool-rebuild salvage path must never swallow a
    done-but-failed chunk's exception (it used to resubmit it attempt-free,
    so a deterministically failing chunk cycled through rebuilds forever
    with no event, no attempt charged, and no quarantine)."""

    @staticmethod
    def _engine_with_pools(monkeypatch, pools, **kwargs):
        from concurrent.futures import BrokenExecutor  # noqa: F401

        engine = SweepEngine(parallel=True, max_workers=2, chunk_size=1,
                             retry_backoff=0.0, **kwargs)
        queue = list(pools)
        monkeypatch.setattr(engine, "_new_pool", lambda workers: queue.pop(0))
        return engine

    def test_salvaged_failure_charged_and_retried(self, monkeypatch):
        from concurrent.futures import BrokenExecutor

        # Round 1: chunk [0] breaks the pool (rebuild), chunk [1] is done
        # but failed — the salvage path must charge it. Round 2 (fresh
        # pool, empty script): everything computes.
        pools = [
            _ScriptedPool({0: BrokenExecutor("worker died"),
                           1: ValueError("poisoned chunk")}),
            _ScriptedPool({}),
        ]
        engine = self._engine_with_pools(monkeypatch, pools, retries=2)
        results = engine.map(_times_ten, [0, 1, 2])
        assert results == [0, 10, 20]
        counts = engine.events.counts()
        assert counts.get("chunk_salvage_failed", 0) == 1
        assert counts.get("pool_rebuild", 0) == 1
        salvage = [r for r in engine.events.records
                   if r["event"] == "chunk_salvage_failed"]
        assert salvage[0]["attempt"] == 1
        assert "ValueError: poisoned chunk" in salvage[0]["error"]

    def test_persistent_salvaged_failure_quarantines(self, monkeypatch):
        from concurrent.futures import BrokenExecutor

        # Chunk [0] breaks the pool every round, so chunk [1] — whose
        # worker genuinely fails — is only ever seen by the salvage path.
        # With retries=1 both must reach quarantine after two charged
        # attempts instead of looping attempt-free forever.
        pools = [
            _ScriptedPool({0: BrokenExecutor("worker died")}),
            _ScriptedPool({0: BrokenExecutor("worker died again")}),
            _ScriptedPool({}),
        ]
        engine = self._engine_with_pools(monkeypatch, pools, retries=1)
        quarantined = []
        results = engine.map(
            _fail_on_one, [0, 1, 2],
            on_item_error=lambda exc, item: quarantined.append((item, exc)) or -1,
        )
        assert results == [-1, -1, 20]
        assert sorted(item for item, _ in quarantined) == [0, 1]
        failure = dict(quarantined)[1]
        assert "always fails" in str(failure)
        counts = engine.events.counts()
        assert counts.get("chunk_salvage_failed", 0) == 2
