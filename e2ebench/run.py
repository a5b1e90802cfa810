"""End-to-end benchmark of the repro system: one command, three workloads.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0

Workloads: ``sweep_grid`` (cold and resumed cached regression grids on a
process pool), ``decentralized_rr8`` (n=1024 filtered DGD on a random
8-regular graph under link faults) and ``serve_mixed`` (``repro serve`` in
a child process under an open loop of run/sweep jobs).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with per-layer wrappers installed
(``layers.py``) and reports the per-layer metrics, each layer's share of
the traced wall time and the tracing overhead. Human-readable report lines
go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 means
every output check passed; 1 means a check failed; 2 means the program or
the arguments are unusable.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (REPO_ROOT, WORK_ROOT, CheckFailed, RssSampler, SetupError,  # noqa: E402
                    host_steal_s, use_repo_sources)

#: Workload name -> module implementing ``run(seed, seconds, work, trace)``.
WORKLOAD_MODULES = {
    "sweep_grid": "w_sweep",
    "decentralized_rr8": "w_decentralized",
    "serve_mixed": "w_serve",
}
WORKLOADS = tuple(WORKLOAD_MODULES)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
}

#: Per-layer metrics (``--trace 1``): name -> unit. Every workload reports
#: every one; a layer a workload bypasses reads 0.
PER_LAYER = {
    "problems.instance_builds": "count",
    "problems.instance_build_s": "s",
    "core.rank_condition_calls": "count",
    "core.rank_condition_s": "s",
    "cache.writes": "count",
    "cache.write_bytes": "bytes",
    "cache.write_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.read_s": "s",
    "sweep.groups": "count",
    "sweep.chunk_retries": "count",
    "sweep.dispatch_wait_s": "s",
    "system.batch.calls": "count",
    "system.batch.rounds": "count",
    "system.batch_s": "s",
    "aggregators.calls": "count",
    "aggregators_s": "s",
    "system.messages_per_round": "count",
    "system.bytes_per_round": "bytes",
    "system.runner.calls": "count",
    "system.runner_s": "s",
    "observability.records": "count",
    "observability.record_s": "s",
    "observability.jsonl_bytes": "bytes",
    "service.submit_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_p95_s": "s",
    "service.exec_p50_s": "s",
    "service.exec_p95_s": "s",
    "service.manifest_saves": "count",
    "service.admission_rejected": "count",
    "service.queue_depth_max": "count",
    "service.jobs_done": "count",
    "decentralized.rounds": "count",
    "decentralized.self_s": "s",
    "netfaults.draw_calls": "count",
    "netfaults.draw_s": "s",
    "netfaults.dropped_edges": "count",
    "netfaults.delayed_edges": "count",
    "netfaults.corrupted_edges": "count",
    "healing.observe_s": "s",
    "healing.stale_reuses": "count",
    "topology.build_s": "s",
    "optimization.cost_build_s": "s",
    "share.problems": "ratio",
    "share.core": "ratio",
    "share.cache": "ratio",
    "share.sweep": "ratio",
    "share.system.batch": "ratio",
    "share.aggregators": "ratio",
    "share.system.runner": "ratio",
    "share.observability": "ratio",
    "share.service": "ratio",
    "share.decentralized": "ratio",
    "share.netfaults": "ratio",
    "share.healing": "ratio",
    "share.topology": "ratio",
    "share.optimization": "ratio",
    "trace.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: Per-layer counts that must repeat exactly for the same seed.
DETERMINISTIC_COUNTS = (
    "problems.instance_builds", "core.rank_condition_calls", "cache.writes",
    "cache.write_bytes", "cache.hits", "cache.misses", "sweep.groups",
    "system.batch.calls", "system.batch.rounds", "system.messages_per_round",
    "system.bytes_per_round", "system.runner.calls", "observability.records",
    "service.manifest_saves", "service.jobs_done", "decentralized.rounds",
    "netfaults.draw_calls", "netfaults.dropped_edges", "netfaults.delayed_edges",
    "netfaults.corrupted_edges", "healing.stale_reuses",
)


def _print_report(workload: str, outcome: dict, peak_rss_mb: float, steal_s: float,
                  trace: bool) -> None:
    print(f"workload {workload}")
    # Time the hypervisor ran other guests on our CPUs: runs with a lot of
    # it read slow for reasons outside the program.
    print(f"  {'host_steal_s':<28} {steal_s:.2f} s")
    print(f"  {'setup_s':<28} {outcome['setup_s']:.4f} s")
    print(f"  {'peak_rss_mb':<28} {peak_rss_mb:.1f} MB")
    ratio = outcome["failed"] / outcome["attempted"]
    print(f"  {'failed_ratio':<28} {ratio:.4f} ({outcome['failed']}/{outcome['attempted']})")
    for name, (value, unit) in outcome["report"].items():
        print(f"  {name:<28} {value} {unit}")
    for name, value in outcome["counts"].items():
        print(f"  count {name:<22} {value}")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  layer {name:<34} {outcome['per_layer'].get(name, 0.0):.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        use_repo_sources()
    except SetupError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    os.chdir(REPO_ROOT)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        module = importlib.import_module(WORKLOAD_MODULES[args.workload])
        steal_start = host_steal_s()
        with RssSampler() as rss:
            outcome = module.run(args.seed, args.seconds, work, bool(args.trace))
        steal_s = host_steal_s() - steal_start
    except CheckFailed as exc:
        print(f"e2ebench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    _print_report(args.workload, outcome, rss.peak_mb, steal_s, bool(args.trace))
    if args.trace:
        values = {name: outcome["per_layer"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {**{k: outcome[k] for k in END_TO_END if k in outcome},
                  "peak_rss_mb": rss.peak_mb}
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            print(f"e2ebench: metric {name} is not finite", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
