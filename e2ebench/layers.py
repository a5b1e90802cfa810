"""Per-layer span recording for the traced benchmark run.

The program is not modified: :func:`install` wraps public functions and
methods of each layer from the outside, and rebinds every by-name import of
a wrapped function across the loaded ``repro`` modules (``system.decentralized``
imports its CWTM/CGE kernels by name, for example). Each wrapper records one
span per call into a per-process table of calls, inclusive seconds and
*self* seconds (span minus the spans of wrapped calls it made on the same
thread), plus layer-specific counts.

Spans stay in memory. Pool workers are forked from a process that already
holds the wrappers, so they record too; a worker writes its table to
``<trace dir>/spans-<pid>.json`` whenever its outermost span ends (pools are
killed, not joined, so there is no exit hook to rely on). A served child
started through ``served.py`` flushes at most every ``FLUSH_EVERY`` seconds
and once at exit. :func:`collect` merges every table under the trace dir.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

TRACE_DIR_ENV = "E2EBENCH_TRACE_DIR"
FLUSH_EVERY = 0.5

#: Keys whose span intervals are kept (for cross-process coverage).
INTERVAL_KEYS = ("sweep.grid", "sweep.group")

_lock = threading.Lock()
_flush_lock = threading.Lock()
_local = threading.local()
_table: Dict[str, List[float]] = {}  # key -> [calls, outer_calls, incl_s, self_s]
_layer_of: Dict[str, str] = {}
_counts: Dict[str, float] = {}
_intervals: Dict[str, List[Tuple[float, float]]] = {}
_installed = False
_install_pid = os.getpid()
_flush_in_installer = False
_last_flush = 0.0


def _reset_after_fork() -> None:
    global _lock, _flush_lock, _local, _last_flush
    _lock = threading.Lock()
    _flush_lock = threading.Lock()
    _local = threading.local()
    _table.clear()
    _counts.clear()
    _intervals.clear()
    _last_flush = 0.0


def count(name: str, by: float = 1) -> None:
    with _lock:
        _counts[name] = _counts.get(name, 0) + by


def _record(key: str, layer: str, t0: float, t1: float, child: float,
            outer: bool) -> None:
    with _lock:
        row = _table.setdefault(key, [0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += 1 if outer else 0
        row[2] += t1 - t0
        row[3] += (t1 - t0) - child
        _layer_of[key] = layer
        if key in INTERVAL_KEYS:
            _intervals.setdefault(key, []).append((t0, t1))


def _snapshot() -> Dict:
    with _lock:
        return {
            "table": {k: list(v) for k, v in _table.items()},
            "layers": dict(_layer_of),
            "counts": dict(_counts),
            "intervals": {k: list(v) for k, v in _intervals.items()},
        }


def flush() -> None:
    """Write this process's table to the trace dir (if one is set)."""
    global _last_flush
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
    tmp = f"{path}.tmp"
    with _flush_lock:  # the served child flushes from several job threads
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(_snapshot(), handle)
        os.replace(tmp, path)
        _last_flush = time.perf_counter()


def _after_outermost() -> None:
    if os.getpid() != _install_pid:
        flush()  # forked pool worker: may be killed at any moment
    elif _flush_in_installer and time.perf_counter() - _last_flush >= FLUSH_EVERY:
        flush()


def _wrap(fn: Callable, key: str, layer: str,
          classify: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_key, span_layer = (key, layer) if classify is None else classify(args, kwargs)
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        outer = not stack or stack[-1][0] != span_layer
        frame = [span_layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            _record(span_key, span_layer, t0, t1, frame[1], outer)
        if after is not None:
            after(span_key, args, kwargs, result)
        if not stack:
            _after_outermost()
        return result

    return wrapper


# ----------------------------------------------------------------------
# Layer-specific classification and counts
# ----------------------------------------------------------------------


def _path_arg(args, kwargs) -> str:
    return str(args[0] if args else kwargs.get("path", ""))


def _classify_io(prefix: str):
    def classify(args, kwargs) -> Tuple[str, str]:
        path = _path_arg(args, kwargs)
        base = os.path.basename(path)
        if base.startswith("manifest-"):
            return "sweep.manifest_" + prefix, "sweep"
        if base in ("job.json", "result.json", "metrics.json"):
            return f"service.{base[:-5]}_{prefix}", "service"
        if os.path.basename(os.path.dirname(path)) == "cache":
            return "cache." + prefix, "cache"
        return "atomicio." + prefix, "cache"

    return classify


def _after_write(key, args, kwargs, result) -> None:
    if key == "cache.write":
        try:
            count("cache.write_bytes", os.path.getsize(_path_arg(args, kwargs)))
        except OSError:
            pass


def _after_group(key, args, kwargs, payloads) -> None:
    for payload in payloads:
        state = payload.get("cache_state")
        if state == "hit":
            count("cache.hits")
        elif state in ("miss", "corrupt"):
            count("cache.misses")


def _after_sweep_event(key, args, kwargs, result) -> None:
    event = args[1] if len(args) > 1 else kwargs.get("event")
    if event in ("chunk_retry", "item_retry"):
        count("sweep.chunk_retries")


def _after_batch(key, args, kwargs, traces) -> None:
    costs = args[0] if args else kwargs["costs"]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    runs = len(traces)
    rounds = int(config.iterations)
    dimension = costs[0].dimension
    count("system.batch.rounds", rounds)
    count("system.run_rounds", runs * rounds)
    count("system.messages", len(costs) * runs * rounds)
    count("system.bytes", len(costs) * runs * rounds * dimension * 8)


def _after_runner(key, args, kwargs, trace) -> None:
    costs = args[0] if args else kwargs["costs"]
    rounds = len(trace.estimates) - 1
    count("system.run_rounds", rounds)
    count("system.messages", len(costs) * rounds)
    count("system.bytes", len(costs) * rounds * costs[0].dimension * 8)


def _after_decentralized(key, args, kwargs, result) -> None:
    topology = args[1] if len(args) > 1 else kwargs["topology"]
    rounds = len(result.mean_trajectory) - 1
    edges = 2 * topology.num_edges
    count("decentralized.rounds", rounds)
    count("system.run_rounds", rounds)
    count("system.messages", edges * rounds)
    count("system.bytes", edges * rounds * result.dimension * 8)
    for name in ("dropped_edges", "delayed_edges", "corrupted_edges", "stale_reuses"):
        count("decentralized." + name, result.counters[name])


# (module, attribute, key, layer, classify, after)
_TARGETS = [
    ("repro.problems.linear_regression", "make_redundant_regression",
     "problems.instance_build", "problems", None, None),
    ("repro.core.redundancy", "minimal_subset_rank_condition",
     "core.rank_condition", "core", None, None),
    ("repro.utils.atomicio", "write_json_atomic", "", "", _classify_io("write"), _after_write),
    ("repro.utils.atomicio", "read_json_checked", "", "", _classify_io("read"), None),
    ("repro.experiments.sweep", "SweepEngine.run_regression_grid", "sweep.grid", "sweep", None, None),
    ("repro.experiments.sweep", "_run_regression_group", "sweep.group", "sweep", None, _after_group),
    ("repro.experiments.sweep", "SweepEvents.emit", "sweep.event", "sweep", None, _after_sweep_event),
    ("repro.system.batch", "run_dgd_batch", "system.batch", "system.batch", None, _after_batch),
    ("repro.system.runner", "run_dgd", "system.runner", "system.runner", None, _after_runner),
    ("repro.observability.telemetry", "Telemetry.emit", "observability.emit", "observability",
     None, None),
    ("repro.observability.telemetry", "Telemetry.record_round", "observability.record_round",
     "observability", None, None),
    ("repro.observability.telemetry", "Telemetry.record_liveness", "observability.record_liveness",
     "observability", None, None),
    ("repro.observability.telemetry", "Telemetry.close", "observability.close", "observability",
     None, None),
    ("repro.observability.exporters", "JSONLSink.emit", "observability.jsonl_emit",
     "observability", None, None),
    ("repro.service.executor", "JobExecutor.execute", "service.execute", "service", None, None),
    ("repro.service.jobs", "JobStore.create", "service.create", "service", None, None),
    ("repro.system.decentralized", "run_decentralized_dgd", "decentralized.run",
     "decentralized", None, _after_decentralized),
    ("repro.system.netfaults", "LinkFaultModel.draw_link_faults", "netfaults.draw",
     "netfaults", None, None),
    ("repro.system.netfaults", "LinkFaultModel.edge_parameters", "netfaults.edge_parameters",
     "netfaults", None, None),
    ("repro.system.netfaults", "LinkFaultModel.down_mask", "netfaults.down_mask",
     "netfaults", None, None),
    ("repro.system.netfaults", "corrupt_payload_rows", "netfaults.corrupt", "netfaults",
     None, None),
    ("repro.system.healing", "NeighborhoodLiveness.observe", "healing.observe", "healing",
     None, None),
    ("repro.system.topology", "make_topology", "topology.build", "topology", None, None),
    ("repro.experiments.topology_resilience", "full_local_rank_costs",
     "optimization.cost_build", "optimization", None, None),
]


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's by-name import at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_attribute(module_name: str, attr: str, key: str, layer: str,
                    classify=None, after=None) -> None:
    module = importlib.import_module(module_name)
    owner, name = module, attr
    if "." in attr:
        class_name, name = attr.split(".", 1)
        owner = getattr(module, class_name)
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    wrapper = _wrap(original, key, layer, classify, after)
    setattr(owner, name, wrapper)
    if owner is module:
        _rebind(original, wrapper)


def _aggregator_targets() -> List[Tuple[type, str]]:
    import repro.aggregators.registry  # noqa: F401  (registers every filter)
    from repro.aggregators.base import GradientFilter

    found, frontier = [], [GradientFilter]
    while frontier:
        cls = frontier.pop()
        frontier.extend(cls.__subclasses__())
        for name in ("aggregate", "aggregate_batch"):
            if name in cls.__dict__:
                found.append((cls, name))
    return found


def install(trace_dir: Optional[str] = None) -> None:
    """Wrap every layer's entry points; idempotent.

    Call before the first process pool is built so forked workers inherit
    the wrappers.
    """
    global _installed, _install_pid
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        os.environ[TRACE_DIR_ENV] = trace_dir
    if _installed:
        return
    _installed = True
    _install_pid = os.getpid()
    os.register_at_fork(after_in_child=_reset_after_fork)
    # Import everything first so the by-name rebinding sees every module.
    for module_name, *_ in _TARGETS:
        importlib.import_module(module_name)
    kernels = importlib.import_module("repro.aggregators.kernels")
    for module_name, attr, key, layer, classify, after in _TARGETS:
        _wrap_attribute(module_name, attr, key, layer, classify, after)
    for name in getattr(kernels, "__all__", ()):
        if callable(getattr(kernels, name)):
            _wrap_attribute("repro.aggregators.kernels", name,
                            "aggregators.kernel", "aggregators")
    for cls, name in _aggregator_targets():
        original = cls.__dict__[name]
        setattr(cls, name, _wrap(original, "aggregators.filter", "aggregators"))


def install_for_served_child() -> None:
    """Install in a served child; flush its table periodically and at exit."""
    global _flush_in_installer
    install()
    _flush_in_installer = True
    atexit.register(flush)


def collect(trace_dir: Optional[str]) -> Dict:
    """Merge this process's table with every flushed table in ``trace_dir``."""
    snapshots = [_snapshot()]
    if trace_dir and os.path.isdir(trace_dir):
        for name in sorted(os.listdir(trace_dir)):
            if name.startswith("spans-") and name.endswith(".json"):
                with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
                    snapshots.append(json.load(handle))
    merged = {"table": {}, "layers": {}, "counts": {}, "intervals": {}}
    for snap in snapshots:
        for key, row in snap["table"].items():
            acc = merged["table"].setdefault(key, [0, 0, 0.0, 0.0])
            for index, value in enumerate(row):
                acc[index] += value
        merged["layers"].update(snap["layers"])
        for key, value in snap["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        for key, spans in snap["intervals"].items():
            merged["intervals"].setdefault(key, []).extend(tuple(s) for s in spans)
    return merged


def union_length(spans: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``spans`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in spans if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


#: Layers reported with a share of wall time, in report order.
LAYERS = ("problems", "core", "cache", "sweep", "system.batch", "aggregators",
          "system.runner", "observability", "service", "decentralized",
          "netfaults", "healing", "topology", "optimization")


def layer_metrics(merged: Dict, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced workload from a merged table."""
    table, counts = merged["table"], merged["counts"]

    def calls(key: str, outer: bool = False) -> float:
        row = table.get(key)
        return float(row[1] if outer else row[0]) if row else 0.0

    def self_s(*keys: str) -> float:
        return float(sum(table[k][3] for k in keys if k in table))

    def layer_self(layer: str) -> float:
        return float(sum(row[3] for key, row in table.items()
                         if merged["layers"].get(key) == layer))

    grids = merged["intervals"].get("sweep.grid", [])
    groups = merged["intervals"].get("sweep.group", [])
    dispatch_wait = sum((b - a) - union_length(groups, a, b) for a, b in grids)
    run_rounds = counts.get("system.run_rounds", 0)
    metrics = {
        "problems.instance_builds": calls("problems.instance_build"),
        "problems.instance_build_s": self_s("problems.instance_build"),
        "core.rank_condition_calls": calls("core.rank_condition"),
        "core.rank_condition_s": self_s("core.rank_condition"),
        "cache.writes": calls("cache.write"),
        "cache.write_bytes": float(counts.get("cache.write_bytes", 0)),
        "cache.write_s": self_s("cache.write"),
        "cache.hits": float(counts.get("cache.hits", 0)),
        "cache.misses": float(counts.get("cache.misses", 0)),
        "cache.read_s": self_s("cache.read"),
        "sweep.groups": calls("sweep.group"),
        "sweep.chunk_retries": float(counts.get("sweep.chunk_retries", 0)),
        "sweep.dispatch_wait_s": float(dispatch_wait),
        "system.batch.calls": calls("system.batch"),
        "system.batch.rounds": float(counts.get("system.batch.rounds", 0)),
        "system.batch_s": self_s("system.batch"),
        "aggregators.calls": float(sum(calls(k, outer=True) for k in
                                       ("aggregators.filter", "aggregators.kernel"))),
        "aggregators_s": layer_self("aggregators"),
        "system.messages_per_round": (
            counts.get("system.messages", 0) / run_rounds if run_rounds else 0.0),
        "system.bytes_per_round": (
            counts.get("system.bytes", 0) / run_rounds if run_rounds else 0.0),
        "system.runner.calls": calls("system.runner"),
        "system.runner_s": self_s("system.runner"),
        "observability.records": calls("observability.emit"),
        "observability.record_s": layer_self("observability"),
        "service.manifest_saves": calls("service.job_write"),
        "decentralized.rounds": float(counts.get("decentralized.rounds", 0)),
        "decentralized.self_s": self_s("decentralized.run"),
        "netfaults.draw_calls": calls("netfaults.draw"),
        "netfaults.draw_s": layer_self("netfaults"),
        "netfaults.dropped_edges": float(counts.get("decentralized.dropped_edges", 0)),
        "netfaults.delayed_edges": float(counts.get("decentralized.delayed_edges", 0)),
        "netfaults.corrupted_edges": float(counts.get("decentralized.corrupted_edges", 0)),
        "healing.observe_s": self_s("healing.observe"),
        "healing.stale_reuses": float(counts.get("decentralized.stale_reuses", 0)),
        "topology.build_s": self_s("topology.build"),
        "optimization.cost_build_s": self_s("optimization.cost_build"),
    }
    # The grid span's own time is waiting on groups (in-process or in pool
    # workers); count only its uncovered part, so work is not counted twice.
    busy = {layer: layer_self(layer) for layer in LAYERS}
    busy["sweep"] += dispatch_wait - self_s("sweep.grid")
    total = sum(busy.values())
    for layer in LAYERS:
        metrics[f"share.{layer}"] = busy[layer] / total if total > 0 else 0.0
    metrics["trace.busy_s"] = total
    metrics["trace.wall_s"] = wall_s
    return metrics


def report(trace_dir: str, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced run plus its overhead over the untraced one."""
    metrics = layer_metrics(collect(trace_dir), traced_wall_s)
    metrics["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return metrics
