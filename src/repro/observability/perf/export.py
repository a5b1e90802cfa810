"""Cross-process span-tree reconstruction and trace exporters.

A traced job leaves spans scattered across several JSONL streams: the
job's ``events.jsonl`` (engine + chunk spans emitted by the service
executor and the sweep engine) and per-group telemetry streams written
by pool workers (group/run/round spans). Every span record carries the
deterministic ``trace_id``/``span_id``/``parent_span_id`` triple from
:mod:`repro.observability.tracing`, so the tree is reassembled by id —
no clock synchronization between processes is assumed (wall-clock ``ts``
is used only for sibling ordering and the Chrome timeline).

Three consumers:

- :func:`build_span_tree` — the reconstructor: span records (last write
  wins per span id, so chunk retries collapse) → a forest of
  :class:`SpanNode`, with non-span records attached to their owning span.
- :func:`to_chrome_trace` / :func:`parse_chrome_trace` — Chrome
  trace-event JSON (the ``chrome://tracing`` / Perfetto format), one
  virtual thread per source stream; the parser validates the schema and
  backs the export round-trip tests and the CI artifact check.
- :func:`render_flame` — a text flame view: the tree indented by depth
  with inclusive durations and share-of-root, repeated same-name leaf
  siblings (the per-round spans) collapsed into one aggregate line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.observability.exporters import _percentile, load_jsonl
from repro.utils.atomicio import write_json_atomic

__all__ = [
    "SpanNode",
    "collect_trace_records",
    "build_span_tree",
    "to_chrome_trace",
    "write_chrome_trace",
    "parse_chrome_trace",
    "render_flame",
]

#: Key added to collected records naming the stream they came from.
SOURCE_KEY = "_stream"


@dataclass
class SpanNode:
    """One reconstructed span and its subtree."""

    name: str
    span_id: str
    trace_id: str
    parent_span_id: Optional[str]
    seconds: float
    ts: Optional[float]
    source: Optional[str] = None
    children: List["SpanNode"] = field(default_factory=list)
    events: List[Dict] = field(default_factory=list)

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_payload(self) -> Dict:
        """JSON-encodable recursive dump (used by equality assertions)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "seconds": self.seconds,
            "ts": self.ts,
            "source": self.source,
            "events": len(self.events),
            "children": [child.to_payload() for child in self.children],
        }


def collect_trace_records(path: str) -> List[Dict]:
    """Load every record from a JSONL file or a directory of streams.

    Directories are walked recursively (a job directory holds
    ``events.jsonl`` plus a ``telemetry/`` subdirectory); each record is
    annotated with the stream it came from under ``"_stream"`` so the
    exporters can map streams to timeline threads.
    """
    if os.path.isfile(path):
        streams = [path]
        root = os.path.dirname(path) or "."
    elif os.path.isdir(path):
        root = path
        streams = []
        for dirpath, _dirnames, filenames in os.walk(path):
            for name in sorted(filenames):
                if name.endswith(".jsonl"):
                    streams.append(os.path.join(dirpath, name))
        streams.sort()
    else:
        raise InvalidParameterError(f"no trace stream at {path}")
    if not streams:
        raise InvalidParameterError(f"no .jsonl streams under {path}")
    records: List[Dict] = []
    for stream in streams:
        label = os.path.relpath(stream, root)
        for record in load_jsonl(stream):
            if isinstance(record, dict):
                record = dict(record)
                record[SOURCE_KEY] = label
                records.append(record)
    return records


def _span_sort_key(node: SpanNode) -> Tuple:
    return (
        node.ts if node.ts is not None else float("inf"),
        node.name,
        node.span_id,
    )


def build_span_tree(records: Iterable[Dict]) -> List[SpanNode]:
    """Reassemble traced span records into a forest of :class:`SpanNode`.

    Only records with ``event == "span"`` and a ``span_id`` participate;
    the rest of a traced stream (rounds, counters, chunk events) is
    attached to its owning span via its ``span_id`` reference. Re-emitted
    span ids (chunk retries, resumed engines) keep the last occurrence.
    Spans whose parent never materialized (e.g. a partial stream) become
    roots, so a truncated trace still renders.
    """
    nodes: Dict[str, SpanNode] = {}
    pending_events: List[Dict] = []
    for record in records:
        if not isinstance(record, dict) or "span_id" not in record:
            continue
        if record.get("event") == "span":
            span_id = str(record["span_id"])
            parent = record.get("parent_span_id")
            node = SpanNode(
                name=str(record.get("name", "")),
                span_id=span_id,
                trace_id=str(record.get("trace_id", "")),
                parent_span_id=None if parent is None else str(parent),
                seconds=float(record.get("seconds", 0.0)),
                ts=(
                    float(record["ts"])
                    if record.get("ts") is not None
                    else None
                ),
                source=record.get(SOURCE_KEY),
            )
            previous = nodes.get(span_id)
            if previous is not None:
                node.events = previous.events
            nodes[span_id] = node
        else:
            pending_events.append(record)
    for record in pending_events:
        owner = nodes.get(str(record["span_id"]))
        if owner is not None:
            owner.events.append(record)
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = (
            nodes.get(node.parent_span_id)
            if node.parent_span_id is not None
            else None
        )
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=_span_sort_key)
    roots.sort(key=_span_sort_key)
    return roots


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------


def to_chrome_trace(records: Iterable[Dict]) -> Dict:
    """Render traced records as a Chrome trace-event JSON document.

    Spans become ``"ph": "X"`` (complete) events with microsecond
    ``ts``/``dur`` rebased to the earliest span start, one virtual
    ``tid`` per source stream (named via ``thread_name`` metadata
    events), and the span/trace ids carried in ``args`` so
    :func:`parse_chrome_trace` can rebuild the exact tree.
    """
    roots = build_span_tree(records)
    spans = [node for root in roots for node in root.walk()]
    timed = [node for node in spans if node.ts is not None]
    base = min((node.ts for node in timed), default=0.0)
    sources = sorted({node.source or "<records>" for node in spans})
    tids = {source: index + 1 for index, source in enumerate(sources)}
    events: List[Dict] = []
    for source, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": source},
            }
        )
    for node in spans:
        start = node.ts if node.ts is not None else base
        events.append(
            {
                "name": node.name,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": node.seconds * 1e6,
                "pid": 1,
                "tid": tids[node.source or "<records>"],
                "args": {
                    "trace_id": node.trace_id,
                    "span_id": node.span_id,
                    "parent_span_id": node.parent_span_id,
                    "source": node.source,
                    "events": len(node.events),
                    # Absolute start (seconds): the timeline ``ts`` above
                    # is rebased for the viewer, this one survives the
                    # parse round-trip bit-exactly.
                    "ts": node.ts,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, records: Iterable[Dict]) -> Dict:
    """Write the Chrome trace JSON to ``path``; return the document.

    Written *without* the repository's checksum wrapper — Perfetto and
    ``chrome://tracing`` expect the bare document.
    """
    document = to_chrome_trace(records)
    write_json_atomic(path, document, checksum=False)
    return document


def parse_chrome_trace(document) -> List[Dict]:
    """Validate a Chrome trace document; return its span records.

    Accepts the parsed JSON document (or a path to one) and returns
    telemetry-schema span records — feeding them back through
    :func:`build_span_tree` must reproduce the tree the export was built
    from; the round-trip tests and the CI artifact check pin this.

    Raises :class:`~repro.exceptions.InvalidParameterError` on any
    schema violation.
    """
    if isinstance(document, (str, os.PathLike)):
        try:
            with open(os.fspath(document), "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(
                f"unreadable chrome trace: {exc}"
            ) from exc
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise InvalidParameterError(
            "chrome trace must be an object with a traceEvents list"
        )
    trace_events = document["traceEvents"]
    if not isinstance(trace_events, list):
        raise InvalidParameterError("traceEvents must be a list")
    records: List[Dict] = []
    for index, event in enumerate(trace_events):
        if not isinstance(event, dict):
            raise InvalidParameterError(
                f"traceEvents[{index}] is not an object"
            )
        phase = event.get("ph")
        if phase not in ("X", "M"):
            raise InvalidParameterError(
                f"traceEvents[{index}] has unsupported phase {phase!r}"
            )
        for key in ("name", "pid", "tid"):
            if key not in event:
                raise InvalidParameterError(
                    f"traceEvents[{index}] missing {key!r}"
                )
        if phase == "M":
            continue
        for key in ("ts", "dur"):
            if not isinstance(event.get(key), (int, float)):
                raise InvalidParameterError(
                    f"traceEvents[{index}] missing numeric {key!r}"
                )
        args = event.get("args")
        if not isinstance(args, dict) or "span_id" not in args:
            raise InvalidParameterError(
                f"traceEvents[{index}] args must carry span lineage"
            )
        record = {
            "event": "span",
            "name": event["name"],
            "seconds": float(event["dur"]) / 1e6,
            "trace_id": args.get("trace_id"),
            "span_id": args["span_id"],
            "parent_span_id": args.get("parent_span_id"),
        }
        if args.get("ts") is not None:
            record["ts"] = float(args["ts"])
        if args.get("source") is not None:
            record[SOURCE_KEY] = args["source"]
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Text flame view
# ----------------------------------------------------------------------


def _render_node(
    node: SpanNode, depth: int, total: float, lines: List[str]
) -> None:
    indent = "  " * depth
    share = (node.seconds / total * 100.0) if total > 0 else 0.0
    lines.append(
        f"{indent}{node.name}  {node.seconds * 1000:.2f}ms  ({share:.1f}%)"
    )
    # Collapse runs of same-name leaf children (per-round spans) into one
    # aggregate line; everything else renders recursively.
    by_name: Dict[str, List[SpanNode]] = {}
    for child in node.children:
        by_name.setdefault(child.name, []).append(child)
    rendered: set = set()
    for child in node.children:
        if child.name in rendered:
            continue
        group = by_name[child.name]
        if len(group) > 3 and all(not member.children for member in group):
            rendered.add(child.name)
            durations = [member.seconds for member in group]
            group_total = sum(durations)
            group_share = (
                group_total / total * 100.0 if total > 0 else 0.0
            )
            lines.append(
                f"{'  ' * (depth + 1)}{child.name} x{len(group)}  "
                f"{group_total * 1000:.2f}ms total  "
                f"p95={_percentile(durations, 95) * 1000:.3f}ms  "
                f"({group_share:.1f}%)"
            )
        else:
            _render_node(child, depth + 1, total, lines)


def render_flame(roots: List[SpanNode]) -> str:
    """Indented text flame view of a reconstructed span forest."""
    if not roots:
        return "(no traced spans)"
    lines: List[str] = []
    for root in roots:
        total = root.seconds
        _render_node(root, 0, total, lines)
    return "\n".join(lines)
