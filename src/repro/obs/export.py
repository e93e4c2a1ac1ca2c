"""Trace exporters: Chrome trace format and JSON lines.

Two output shapes, both documented in ``docs/observability.md``:

* **Chrome trace format** — a dict with a ``traceEvents`` list loadable
  by ``chrome://tracing`` / Perfetto.  Spans become complete (``"X"``)
  events on two timelines: ``tid=1`` is the *wall clock* (what the
  simulator spent) and ``tid=2`` is the *modelled clock* (architecture
  seconds laid end to end per task, preserving nesting).  Instant
  events become ``"i"`` events.
* **JSON lines** — one JSON object per line, one line per span/event;
  the machine-friendly form.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .collector import Collector, SpanRecord

__all__ = ["chrome_trace", "json_lines", "write_chrome_trace", "write_json_lines"]

_PID = 1
_WALL_TID = 1
_MODELLED_TID = 2


def _wall_events(spans: List[SpanRecord]) -> List[Dict[str, Any]]:
    events = []
    for s in spans:
        events.append(
            {
                "name": s.name,
                "cat": s.cat or "span",
                "ph": "X",
                "pid": _PID,
                "tid": _WALL_TID,
                "ts": s.wall_start_s * 1e6,
                "dur": s.wall_dur_s * 1e6,
                "args": {"modelled_s": s.modelled_s, **s.attrs},
            }
        )
    return events


def _modelled_events(spans: List[SpanRecord]) -> List[Dict[str, Any]]:
    """Lay modelled seconds on a synthetic timeline, preserving nesting.

    Each root span is placed after the previous root; a child starts at
    its parent's start plus the modelled time of earlier siblings — the
    natural "where did the modelled budget go" picture.
    """
    by_parent: Dict[Optional[int], List[SpanRecord]] = {}
    for s in spans:
        by_parent.setdefault(s.parent_id, []).append(s)

    events: List[Dict[str, Any]] = []

    def emit(s: SpanRecord, start_us: float) -> None:
        events.append(
            {
                "name": s.name,
                "cat": s.cat or "span",
                "ph": "X",
                "pid": _PID,
                "tid": _MODELLED_TID,
                "ts": start_us,
                "dur": s.modelled_s * 1e6,
                "args": {"wall_dur_s": s.wall_dur_s, **s.attrs},
            }
        )
        child_start = start_us
        for child in by_parent.get(s.span_id, []):
            emit(child, child_start)
            child_start += child.modelled_s * 1e6

    cursor = 0.0
    for root in by_parent.get(None, []):
        emit(root, cursor)
        cursor += max(root.modelled_s * 1e6, 0.01)
    return events


def chrome_trace(collector: Collector) -> Dict[str, Any]:
    """The collector's contents in Chrome trace format (a JSON dict)."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "args": {"name": "atm-repro"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": _WALL_TID,
            "args": {"name": "wall clock"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": _MODELLED_TID,
            "args": {"name": "modelled time"},
        },
    ]
    events.extend(_wall_events(collector.spans))
    events.extend(_modelled_events(collector.spans))
    for e in collector.events:
        events.append(
            {
                "name": e["name"],
                "cat": e.get("cat") or "event",
                "ph": "i",
                "s": "g",
                "pid": _PID,
                "tid": _WALL_TID,
                "ts": e["wall_start_s"] * 1e6,
                "args": dict(e.get("attrs", {})),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def json_lines(collector: Collector) -> str:
    """One JSON object per line: spans, then instant events."""
    lines = [json.dumps(s.to_event(), sort_keys=True) for s in collector.spans]
    lines.extend(json.dumps(e, sort_keys=True) for e in collector.events)
    return "".join(line + "\n" for line in lines)


def write_chrome_trace(path: str, collector: Collector) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(collector), fh, indent=1)


def write_json_lines(path: str, collector: Collector) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_lines(collector))
