"""Plain-text table rendering and JSON export for experiment results.

The reproduction does not depend on any plotting library; every "figure"
benchmark prints the series the original figure plots, and these helpers
keep that output aligned and readable.  :func:`jsonable` is the
machine-readable counterpart: it flattens any experiment's result object
(dataclasses, numpy arrays, nested containers) into plain JSON types for
the CLI's ``--dump-json``.  :func:`cache_traffic` is the routing-cache,
layout-memo, sample-bank and result-cache block of that dump and of the
service's per-job snapshots.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

import numpy as np

from repro.compiler.routing import routing_cache_stats
from repro.core.sample_bank import sample_bank_stats
from repro.obs.metrics import REGISTRY

__all__ = ["format_table", "format_series", "jsonable", "cache_traffic"]

#: Recursion cap for :func:`jsonable` (guards pathological cycles).
_MAX_DEPTH = 16


def jsonable(value: Any, depth: int = 0) -> Any:
    """Flatten an arbitrary result object into JSON-serialisable types.

    Dataclasses recurse over their comparable fields, numpy arrays
    become nested lists, mappings stringify non-string keys and are
    emitted with sorted keys, and anything unrecognised collapses to
    ``repr``.  Every number an
    experiment produces — including the confidence-interval bounds
    carried by :class:`repro.core.yield_model.YieldResult` fields —
    survives the conversion.
    """
    if depth > _MAX_DEPTH:
        return f"<depth-capped:{type(value).__name__}>"
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v, depth + 1) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name), depth + 1)
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, dict):
        # Sorted keys make the output deterministic regardless of the
        # mapping's insertion order (defaultdicts populated per-phase or
        # per-family arrive in execution order, which varies with --jobs).
        converted = {
            (k if isinstance(k, str) else repr(k)): jsonable(v, depth + 1)
            for k, v in value.items()
        }
        return {k: converted[k] for k in sorted(converted)}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v, depth + 1) for v in items]
    return repr(value)


#: Traffic counters read from the metrics registry: block -> metric
#: name and ``{event label: stats key}``.
_TRAFFIC = {
    "routing_cache": (
        "repro_routing_cache_events_total",
        {"hit": "hits", "miss": "misses", "eviction": "evictions"},
    ),
    "layout_cache": (
        "repro_layout_cache_events_total",
        {"hit": "hits", "miss": "misses", "eviction": "evictions"},
    ),
    "sample_bank": (
        "repro_sample_bank_events_total",
        {
            "hit": "hits",
            "miss": "misses",
            "eviction": "evictions",
            "bypass": "bypasses",
            "oversize": "oversize",
        },
    ),
    "result_cache": (
        "repro_result_cache_events_total",
        {"hit": "hits", "miss": "misses", "poisoned_unlink": "poisoned_unlinks"},
    ),
}


def cache_traffic(marks: dict) -> dict[str, dict[str, Any]]:
    """Routing-cache, layout-memo, sample-bank and result-cache traffic since ``marks``.

    ``marks`` is a ``REGISTRY.checkpoint()`` taken before the run.  The
    traffic counts come from the metrics registry, which also holds the
    deltas the engine merges home from worker processes, so they are the
    same at any ``jobs``.  Occupancy (``entries``, ``sources_computed``,
    ``bytes``) is this process's own.  A caller whose run had result
    caching off reports its ``result_cache`` block as ``None``.
    """
    delta = REGISTRY.delta_since(marks) or {"entries": []}
    moved = {
        (entry["name"], *entry["labels"]): entry["payload"]
        for entry in delta["entries"]
    }
    views = {
        "routing_cache": routing_cache_stats(),
        "layout_cache": {},
        "sample_bank": sample_bank_stats(),
        "result_cache": {},
    }
    for block, (metric, stats_keys) in _TRAFFIC.items():
        for event, stat in stats_keys.items():
            views[block][stat] = int(moved.get((metric, event), 0))
    return views


def format_table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a left-aligned, space-padded text table.

    Parameters
    ----------
    header:
        Column titles.
    rows:
        Row values (converted with ``str``).
    """
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(str(title)) for title in header]
    for row in materialised:
        if len(row) != len(header):
            raise ValueError("row length does not match the header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(str(title).ljust(widths[i]) for i, title in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, points: Iterable[tuple[object, object]]) -> str:
    """Render an ``x -> y`` series with a title line."""
    lines = [name]
    for x, y in points:
        lines.append(f"  {x}: {y}")
    return "\n".join(lines)
