"""``sweep_grid``: a cold regression grid, then the grid grown and re-run.

A fresh cell cache per cycle; the cold pass computes every cell of a
16-seed grid, the resume pass grows it to 24 seeds on the same cache, so
2/3 of its cells are cache reads and 1/3 are computed.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import subprocess
import sys
from typing import Dict, List

import numpy as np

from common import check, child_env, median, now

FILTERS = ("cge", "cwtm")
ATTACKS = ("gradient-reverse", "random", "sign-flip", "zero")
FAULT_COUNTS = (1, 2, 3)
N, D, ITERATIONS = 16, 8, 300
COLD_SEEDS, RESUME_SEEDS = 16, 24
SETUP_REPEATS = 5
SAMPLED_GROUPS = 2

_SETUP_CODE = (
    "import sys, tempfile\n"
    "from repro.experiments.sweep import SweepEngine\n"
    "import repro.problems.linear_regression, repro.system.batch\n"
    "SweepEngine(parallel=True, max_workers=2, cache_dir=tempfile.mkdtemp(dir=sys.argv[1]))\n"
)


def make_grid(seed: int, num_seeds: int):
    from repro.experiments.sweep import RegressionGrid

    rng = random.Random(seed)
    return RegressionGrid(
        filters=FILTERS, attacks=ATTACKS, fault_counts=FAULT_COUNTS,
        num_seeds=num_seeds, n=N, d=D, iterations=ITERATIONS,
        master_seed=rng.randrange(2**31), instance_seed=rng.randrange(2**31),
    )


def setup_once(work: str) -> float:
    """Fresh interpreter: import the sweep path and build an engine."""
    start = now()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, work], env=child_env(),
                   check=True)
    return now() - start


def _direct_group(grid, filter_name: str, attack_name: str, f: int) -> List[np.ndarray]:
    """One group recomputed without the engine, pool or cache."""
    from repro.attacks.registry import make_attack
    from repro.problems.linear_regression import make_redundant_regression
    from repro.system.batch import run_dgd_batch
    from repro.system.runner import DGDConfig

    instance = make_redundant_regression(
        n=grid.n, d=grid.d, f=grid.resolved_redundancy_f(),
        noise_std=grid.noise_std, seed=grid.instance_seed,
    )
    config = DGDConfig(iterations=grid.iterations, gradient_filter=filter_name,
                       faulty_ids=tuple(range(f)), f=f, x0=grid.x0, seed=0)
    traces = run_dgd_batch(instance.costs, make_attack(attack_name), config,
                           seeds=grid.seeds())
    return [trace.estimates for trace in traces]


def check_pass(cells, expected: int, cached: int, label: str) -> None:
    check(len(cells) == expected, f"{label}: {len(cells)} cells, expected {expected}")
    bad = [c for c in cells if c.failed or c.quarantined]
    check(not bad, f"{label}: {len(bad)} failed or quarantined cells")
    got = sum(c.cached for c in cells)
    check(got == cached, f"{label}: {got} cells from cache, expected {cached}")


def check_sampled_groups(grid, cells, rng: random.Random) -> None:
    by_group: Dict[tuple, list] = {}
    for cell in cells:
        by_group.setdefault((cell.filter_name, cell.attack_name, cell.f), []).append(cell)
    for key in rng.sample(sorted(by_group), SAMPLED_GROUPS):
        direct = _direct_group(grid, *key)
        for cell, estimates in zip(by_group[key], direct):
            check(np.array_equal(cell.estimates, estimates),
                  f"group {key} seed {cell.seed}: engine result differs from run_dgd_batch")


def run_cycle(seed: int, cycle: int, work: str, on_measured=None) -> Dict:
    """Cold pass, then resume pass on the same cache; returns walls and counts.

    ``on_measured`` is called after both passes and before the output
    checks, whose own recomputation must not count as workload work.
    """
    from repro.experiments.sweep import SweepEngine

    cache_dir = os.path.join(work, f"cache-{cycle}", "cache")
    cold_grid = make_grid(seed, COLD_SEEDS)
    grown_grid = dataclasses.replace(cold_grid, num_seeds=RESUME_SEEDS)
    cells_per_seed = len(FILTERS) * len(ATTACKS) * len(FAULT_COUNTS)
    cold_cells, resume_cells = cells_per_seed * COLD_SEEDS, cells_per_seed * RESUME_SEEDS

    start = now()
    cold = SweepEngine(parallel=True, max_workers=2, cache_dir=cache_dir)
    cold_results = cold.run_regression_grid(cold_grid)
    cold_wall = now() - start
    start = now()
    resume = SweepEngine(parallel=True, max_workers=2, cache_dir=cache_dir)
    resume_results = resume.run_regression_grid(grown_grid)
    resume_wall = now() - start
    measured = on_measured(cold_wall + resume_wall) if on_measured else None

    check_pass(cold_results, cold_cells, 0, "cold pass")
    check_pass(resume_results, resume_cells, cold_cells, "resume pass")
    hits = resume.events.counts().get("cache_hit", 0)
    stored = sum(1 for name in os.listdir(cache_dir) if not name.startswith("manifest-"))
    check(hits == cold_cells == stored - (resume_cells - cold_cells),
          f"resume pass: {hits} cache hits, cold pass cached {cold_cells} "
          f"({stored} entries on disk)")
    rng = random.Random(seed * 1000 + cycle)
    check_sampled_groups(grown_grid, resume_results, rng)
    shutil.rmtree(os.path.dirname(cache_dir))
    return {
        "cold_wall": cold_wall, "resume_wall": resume_wall,
        "cold_cells": cold_cells, "resume_cells": resume_cells,
        "cache_hits": hits, "measured": measured,
    }


def run(seed: int, seconds: float, work: str, trace: bool) -> Dict:
    setups = [setup_once(work) for _ in range(SETUP_REPEATS)]
    cycles = []
    if trace:
        import layers

        base = run_cycle(seed, 0, work)
        trace_dir = os.path.join(work, "spans")
        layers.install(trace_dir)
        traced = run_cycle(seed, 1, work, on_measured=lambda wall: layers.report(
            trace_dir, wall, base["cold_wall"] + base["resume_wall"]))
        per_layer = traced["measured"]
        cycles = [base, traced]
    else:
        per_layer = {}
        begin = now()
        while not cycles or now() - begin < seconds:
            cycles.append(run_cycle(seed, len(cycles), work))
    cells = sum(c["cold_cells"] + c["resume_cells"] for c in cycles)
    report = {
        "cold_cells_per_s": (median([c["cold_cells"] / c["cold_wall"] for c in cycles]), "1/s"),
        "resume_cells_per_s": (
            median([c["resume_cells"] / c["resume_wall"] for c in cycles]), "1/s"),
        "resume_wall_s": (median([c["resume_wall"] for c in cycles]), "s"),
        "cycles": (len(cycles), "count"),
    }
    counts = {
        "cells_computed_per_cycle": cycles[0]["cold_cells"] + cycles[0]["resume_cells"]
        - cycles[0]["cache_hits"],
        "cells_cached_per_cycle": cycles[0]["cache_hits"],
    }
    return {
        "setup_s": median(setups),
        # Two separate measurements: the cold pass's rate (instance builds
        # and cache writes) and the resume pass's wall time (cache reads
        # plus the grown third of the grid).
        "throughput_per_s": report["cold_cells_per_s"][0],
        "latency_p50_s": report["resume_wall_s"][0],
        "attempted": cells, "failed": 0,
        "report": report, "counts": counts, "per_layer": per_layer,
    }
