"""The process-global trace collector and its zero-overhead no-op mode.

Instrumented code throughout the library calls the module-level helpers
(:func:`span`, :func:`event`) unconditionally.  When no collector is
active — the default — each helper is a single global read followed by
an early return (``span`` hands back a shared no-op context manager),
so the instrumented hot paths cost nothing measurable; the
``benchmarks/`` suite runs in this mode.

When a :class:`Collector` is activated (usually via the
:func:`collecting` context manager, or the ``atm-repro profile`` /
``report --trace`` commands), every span records **two clocks**:

* *wall time* — how long the simulator itself took, from
  ``time.perf_counter`` (start relative to the collector's epoch);
* *modelled time* — architecture seconds the backend's cost model
  attributed to the span, via :meth:`Span.add_modelled`.

Keeping both is the point: the paper's claims are about modelled time,
while the ROADMAP's "fast as the hardware allows" goal is about wall
time, and a profile must show where each one goes.

The collector keeps spans and events only.  Counts live in the labeled
:mod:`repro.obs.metrics` registry; a count that a trace also needs is
a span (one per occurrence) or a span attribute.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Collector",
    "Span",
    "SpanRecord",
    "NULL_SPAN",
    "activate",
    "deactivate",
    "get_collector",
    "is_active",
    "collecting",
    "span",
    "event",
]


@dataclass
class SpanRecord:
    """One finished span, as stored by the collector."""

    span_id: int
    parent_id: Optional[int]
    name: str
    cat: str
    #: wall-clock start, seconds since the collector's epoch.
    wall_start_s: float
    #: wall-clock duration of the instrumented region, seconds.
    wall_dur_s: float
    #: modelled architecture seconds attributed to this span.
    modelled_s: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_event(self) -> Dict[str, Any]:
        """The span as one JSON-lines event (see docs/observability.md)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "wall_start_s": self.wall_start_s,
            "wall_dur_s": self.wall_dur_s,
            "modelled_s": self.modelled_s,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_event(cls, event: Dict[str, Any]) -> "SpanRecord":
        """Rebuild a record from its :meth:`to_event` dict (pool shipping)."""
        return cls(
            span_id=int(event["id"]),
            parent_id=None if event["parent"] is None else int(event["parent"]),
            name=event["name"],
            cat=event["cat"],
            wall_start_s=float(event["wall_start_s"]),
            wall_dur_s=float(event["wall_dur_s"]),
            modelled_s=float(event["modelled_s"]),
            attrs=dict(event.get("attrs", {})),
        )


class Span:
    """A live tracing span; use as a context manager.

    Created by :meth:`Collector.span` (or the module-level :func:`span`
    helper).  On exit it appends a :class:`SpanRecord` to the collector.
    """

    __slots__ = (
        "_collector",
        "name",
        "cat",
        "attrs",
        "span_id",
        "parent_id",
        "modelled_s",
        "_t0",
    )

    def __init__(self, collector: "Collector", name: str, cat: str, attrs: Dict[str, Any]):
        self._collector = collector
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.modelled_s = 0.0
        self._t0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite span attributes."""
        self.attrs.update(attrs)
        return self

    def add_modelled(self, seconds: float) -> "Span":
        """Attribute ``seconds`` of modelled architecture time to the span."""
        self.modelled_s += float(seconds)
        return self

    def __enter__(self) -> "Span":
        c = self._collector
        self.span_id = c._next_id
        c._next_id += 1
        self.parent_id = c._stack[-1] if c._stack else None
        c._stack.append(self.span_id)
        self._t0 = c._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        c = self._collector
        t1 = c._clock()
        if c._stack and c._stack[-1] == self.span_id:
            c._stack.pop()
        c.spans.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                cat=self.cat,
                wall_start_s=self._t0 - c.epoch,
                wall_dur_s=t1 - self._t0,
                modelled_s=self.modelled_s,
                attrs=self.attrs,
            )
        )
        return False


class _NullSpan:
    """Shared do-nothing span handed out when no collector is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add_modelled(self, seconds: float) -> "_NullSpan":
        return self


#: The singleton no-op span: every disabled-mode ``span()`` call returns it.
NULL_SPAN = _NullSpan()


class Collector:
    """Accumulates spans and instant events."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.spans: List[SpanRecord] = []
        self.events: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def span(self, name: str, cat: str = "", **attrs: Any) -> Span:
        """Open a new span (context manager); nests under the current one."""
        return Span(self, name, cat, attrs)

    def event(self, name: str, cat: str = "", **attrs: Any) -> None:
        """Record an instant event at the current wall time."""
        self.events.append(
            {
                "type": "event",
                "name": name,
                "cat": cat,
                "wall_start_s": self._clock() - self.epoch,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": attrs,
            }
        )

    def clear(self) -> None:
        """Drop all recorded data."""
        self.spans.clear()
        self.events.clear()
        self._stack.clear()
        self._next_id = 0

    # ------------------------------------------------------------------
    # composition: grafting pool-worker traces into this one
    # ------------------------------------------------------------------

    def adopt(
        self,
        spans: List[SpanRecord],
        events: Optional[List[Dict[str, Any]]] = None,
        *,
        parent_id: Optional[int] = None,
        wall_offset_s: float = 0.0,
    ) -> Dict[int, int]:
        """Graft foreign spans and events into this collector.

        Span ids are remapped onto this collector's id space; spans whose
        parent is not among the adopted set (the foreign roots) are
        re-parented under ``parent_id``.  ``wall_offset_s`` shifts the
        foreign wall timeline (collectors from other processes have their
        own epoch).  Returns the old->new id map.
        """
        id_map: Dict[int, int] = {}
        for s in spans:
            id_map[s.span_id] = self._next_id
            self._next_id += 1
        for s in spans:
            foreign_parent = s.parent_id
            if foreign_parent is not None and foreign_parent in id_map:
                new_parent: Optional[int] = id_map[foreign_parent]
            else:
                new_parent = parent_id
            self.spans.append(
                SpanRecord(
                    span_id=id_map[s.span_id],
                    parent_id=new_parent,
                    name=s.name,
                    cat=s.cat,
                    wall_start_s=s.wall_start_s + wall_offset_s,
                    wall_dur_s=s.wall_dur_s,
                    modelled_s=s.modelled_s,
                    attrs=dict(s.attrs),
                )
            )
        for e in events or []:
            foreign_parent = e.get("parent")
            self.events.append(
                {
                    **e,
                    "wall_start_s": float(e.get("wall_start_s", 0.0))
                    + wall_offset_s,
                    "parent": id_map.get(foreign_parent, parent_id)
                    if foreign_parent is not None
                    else parent_id,
                }
            )
        return id_map

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def span_names(self) -> List[str]:
        """Distinct span names, in first-seen order."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.name, None)
        return list(seen)

    def find(self, name: str) -> List[SpanRecord]:
        """All spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def children_of(self, span_id: int) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id == span_id]

    def roots(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id is None]

    def total_modelled(self, cat: Optional[str] = None) -> float:
        """Sum of modelled seconds over spans (optionally one category)."""
        return sum(s.modelled_s for s in self.spans if cat is None or s.cat == cat)

    def total_wall(self, cat: Optional[str] = None) -> float:
        return sum(s.wall_dur_s for s in self.spans if cat is None or s.cat == cat)


# ---------------------------------------------------------------------------
# the process-global collector
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Collector] = None


def get_collector() -> Optional[Collector]:
    """The active collector, or None when tracing is disabled."""
    return _ACTIVE


def is_active() -> bool:
    return _ACTIVE is not None


def activate(collector: Optional[Collector] = None) -> Collector:
    """Install ``collector`` (or a fresh one) as the process collector."""
    global _ACTIVE
    _ACTIVE = collector if collector is not None else Collector()
    return _ACTIVE


def deactivate() -> Optional[Collector]:
    """Return to no-op mode; returns the collector that was active."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def collecting(collector: Optional[Collector] = None) -> Iterator[Collector]:
    """Activate a collector for the duration of the ``with`` block.

    The previously-active collector (usually None) is restored on exit,
    so nested/test usage cannot leak tracing into later code.
    """
    global _ACTIVE
    previous = _ACTIVE
    c = collector if collector is not None else Collector()
    _ACTIVE = c
    try:
        yield c
    finally:
        _ACTIVE = previous


def span(name: str, cat: str = "", **attrs: Any):
    """Open a span on the active collector, or a shared no-op span."""
    c = _ACTIVE
    if c is None:
        return NULL_SPAN
    return c.span(name, cat, **attrs)


def event(name: str, cat: str = "", **attrs: Any) -> None:
    """Record an instant event on the active collector (no-op when disabled)."""
    c = _ACTIVE
    if c is not None:
        c.event(name, cat, **attrs)
