"""The no-op mode contract: disabled instrumentation costs ~nothing.

Wall-clock ratio tests are inherently jittery on shared CI machines, so
the hard asserts here are structural (the disabled fast path allocates
nothing and touches no state) with one generously-bounded timing check.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.radar import generate_radar_frame
from repro.core.setup import setup_flight
from repro.backends.registry import resolve_backend


def test_disabled_span_allocates_nothing():
    assert obs.get_collector() is None
    first = obs.span("hot.path", "cat", k=1)
    for _ in range(100):
        assert obs.span("hot.path") is first  # one shared singleton


def test_disabled_helpers_leave_no_trace():
    assert not obs.is_active()
    with obs.span("a"):
        obs.event("e", note="x")
    collector = obs.activate()
    try:
        assert collector.spans == []
        assert collector.events == []
    finally:
        obs.deactivate()


def test_disabled_span_call_is_cheap():
    # 100k disabled span() calls; generous bound (~2us/call) that only a
    # broken fast path (e.g. allocating a Span per call) would exceed.
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.span("x"):
            pass
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.2, f"{elapsed / n * 1e9:.0f} ns per disabled span"


def test_instrumented_task_runs_identically_when_disabled():
    """bench_core_tasks runs with tracing off; the instrumented task
    path must behave exactly as before the obs layer existed."""
    backend = resolve_backend("cuda:titan-x-pascal")
    fleet = setup_flight(192, 2018)
    frame = generate_radar_frame(fleet, 2018, 0)
    timing = backend.track_and_correlate(fleet, frame)
    assert obs.get_collector() is None
    assert timing.detail  # detail is populated even without a collector
    assert sum(timing.detail.values()) > 0
