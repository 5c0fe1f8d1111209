"""NDJSON snapshot export and the shard-merge operation.

A *snapshot* is a list of JSON-object lines: one ``meta`` header, then the
registry's metrics, then spans.  Ordering is fully deterministic — types
in a fixed order, metrics sorted by name, spans by their derived ids, and
every object serialised with ``sort_keys=True`` — so two runs of the same
workload produce snapshots whose line/key ordering is identical under any
``PYTHONHASHSEED`` (CI pins this with a subprocess test).

Each campaign worker sends the parent its own *shard* snapshot;
:func:`merge_lines` folds any number of shards into one campaign-level
snapshot: counters sum, gauges fold by their declared ``agg``,
histograms add bucket-wise (bounds must agree), spans concatenate.  Merging
is associative over sorted shard order, so a sharded campaign and a serial
one produce the same *shape* of snapshot.

Schema (one JSON object per line)::

    {"type": "meta", "schema": 1, ...}
    {"type": "counter", "name": "...", "value": N}
    {"type": "gauge", "name": "...", "value": X, "agg": "max|min|sum|last"}
    {"type": "histogram", "name": "...", "bounds": [...], "counts": [...],
     "sum": X, "count": N}
    {"type": "span", "trace_id": "...", "span_id": "...", "parent_id": "...",
     "name": "...", "clock": "sim|wall", "start": X, "end": X}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans

SCHEMA_VERSION = 1

#: Fixed emission order of line types within a snapshot.
_TYPE_ORDER = {"meta": 0, "counter": 1, "gauge": 2, "histogram": 3, "span": 4}

Line = Dict[str, Any]


def _sort_key(line: Line) -> Tuple[int, str, str, str]:
    kind = line.get("type", "")
    return (
        _TYPE_ORDER.get(kind, len(_TYPE_ORDER)),
        line.get("name", ""),
        line.get("trace_id", ""),
        line.get("span_id", ""),
    )


def snapshot_lines(
    registry: Optional[_metrics.MetricsRegistry] = None,
    tracer: Optional[_spans.SpanTracer] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> List[Line]:
    """Capture the current snapshot (defaults: process registry + tracer)."""
    registry = registry if registry is not None else _metrics.registry()
    tracer = tracer if tracer is not None else _spans.tracer()
    header: Line = {"type": "meta", "schema": SCHEMA_VERSION}
    if tracer.dropped:
        header["spans_dropped"] = tracer.dropped
    if meta:
        header.update(meta)
    lines: List[Line] = [header]
    lines.extend(registry.snapshot())
    lines.extend(tracer.lines())
    return sorted(lines, key=_sort_key)


def dump_lines(lines: Iterable[Line]) -> str:
    """Serialise snapshot lines to NDJSON text (deterministic key order)."""
    return "".join(
        json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        for line in lines
    )


def write_snapshot(path: Union[str, Path],
                   lines: Optional[Iterable[Line]] = None,
                   **snapshot_kwargs: Any) -> Path:
    """Write a snapshot (captured now unless ``lines`` is given) to ``path``."""
    path = Path(path)
    if lines is None:
        lines = snapshot_lines(**snapshot_kwargs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_lines(lines), encoding="utf-8")
    return path


def read_snapshot(path: Union[str, Path]) -> List[Line]:
    """Parse an NDJSON snapshot file back into line dicts."""
    lines: List[Line] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        raw = raw.strip()
        if raw:
            lines.append(json.loads(raw))
    return lines


# --------------------------------------------------------------------- merge
def _merge_counter(into: Line, line: Line) -> None:
    into["value"] += line["value"]


def _merge_gauge(into: Line, line: Line) -> None:
    agg = into.get("agg", "last")
    if agg != line.get("agg", "last"):
        raise ValueError(
            f"gauge {into.get('name')!r} merged with conflicting agg rules "
            f"{into.get('agg')!r} vs {line.get('agg')!r}"
        )
    if agg == "max":
        into["value"] = max(into["value"], line["value"])
    elif agg == "min":
        into["value"] = min(into["value"], line["value"])
    elif agg == "sum":
        into["value"] += line["value"]
    else:  # "last": later shard wins; shards are merged in sorted order
        into["value"] = line["value"]


def _merge_histogram(into: Line, line: Line) -> None:
    if into["bounds"] != line["bounds"]:
        raise ValueError(
            f"histogram {into.get('name')!r} merged with mismatched bounds "
            f"{into['bounds']} vs {line['bounds']}"
        )
    into["counts"] = [a + b for a, b in zip(into["counts"], line["counts"])]
    into["sum"] += line["sum"]
    into["count"] += line["count"]


def merge_lines(groups: Iterable[Iterable[Line]]) -> List[Line]:
    """Fold several snapshots (e.g. per-worker shards) into one.

    Pass groups in a deterministic order (sorted shard filenames): ``last``
    gauges and the meta header depend on it.
    """
    merged: Dict[Any, Line] = {}
    meta: Line = {"type": "meta", "schema": SCHEMA_VERSION, "merged_shards": 0}
    spans: List[Line] = []
    for group in groups:
        meta["merged_shards"] += 1
        for line in group:
            kind = line.get("type")
            if kind == "meta":
                dropped = line.get("spans_dropped", 0)
                if dropped:
                    meta["spans_dropped"] = meta.get("spans_dropped", 0) + dropped
                continue
            if kind == "span":
                spans.append(dict(line))
                continue
            key = (kind, line.get("name"))
            existing = merged.get(key)
            if existing is None:
                merged[key] = dict(line)
            elif kind == "counter":
                _merge_counter(existing, line)
            elif kind == "gauge":
                _merge_gauge(existing, line)
            elif kind == "histogram":
                _merge_histogram(existing, line)
            else:
                raise ValueError(f"cannot merge unknown line type {kind!r}")
    lines = [meta] + list(merged.values()) + spans
    return sorted(lines, key=_sort_key)


def merge_snapshots(paths: Sequence[Union[str, Path]],
                    out: Optional[Union[str, Path]] = None) -> List[Line]:
    """Merge snapshot *files* (in sorted path order); optionally write ``out``."""
    ordered = sorted(Path(p) for p in paths)
    merged = merge_lines(read_snapshot(p) for p in ordered)
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(dump_lines(merged), encoding="utf-8")
    return merged
