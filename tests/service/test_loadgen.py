"""Closed-loop load generator against a live server (docs/service.md).

The acceptance bar from the service issue: the generator sustains
>= 1000 concurrent in-flight requests against a local server, admission
rejections carry structured deadline verdicts, and the run's p50/p99
land in the metrics registry (and from there in the dashboard panel).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.obs.dashboard import render_dashboard
from repro.obs.metrics import MetricsRegistry
from repro.service import LoadgenOptions, ServiceConfig, SweepService, run_loadgen
from repro.service.loadgen import render_summary


@pytest.fixture
def live_server():
    """A real server on an ephemeral port, on its own event loop thread.

    ``run_loadgen`` spins its own ``asyncio.run`` loop, so the server
    must live on a different one — exactly the CLI topology
    (``atm-repro serve`` and ``atm-repro loadtest`` are separate
    processes).
    """

    def factory(**config_kwargs):
        config_kwargs.setdefault("batch_window_s", 0.3)
        service = SweepService(ServiceConfig(port=0, **config_kwargs))
        started = threading.Event()
        stop = None
        port = None
        loop_holder = {}

        async def serve_until_stopped():
            nonlocal stop, port
            server = await service.serve()
            stop = asyncio.Event()
            port = service.bound_port
            loop_holder["loop"] = asyncio.get_running_loop()
            started.set()
            try:
                await stop.wait()
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        thread = threading.Thread(
            target=lambda: asyncio.run(serve_until_stopped()), daemon=True
        )
        thread.start()
        assert started.wait(timeout=10), "server did not start"

        def shutdown():
            loop_holder["loop"].call_soon_threadsafe(stop.set)
            thread.join(timeout=10)

        return service, port, shutdown

    made = []

    def make(**kwargs):
        triple = factory(**kwargs)
        made.append(triple)
        return triple

    yield make
    for _service, _port, shutdown in made:
        shutdown()


def hold_dispatch_until_inflight(service, count, timeout_s=60.0):
    """Make the service's batch dispatch wait until ``count`` requests
    have been in flight at once (or ``timeout_s`` passes).

    Nothing is served before the first dispatch completes, so every
    connection the generator opens stays in flight until then; holding
    the dispatch makes the peak independent of how fast the host opens
    connections within the batch window.
    """
    measure_batch = service._measure_batch

    def held(requests):
        give_up = time.monotonic() + timeout_s
        while service._inflight_requests_peak < count and time.monotonic() < give_up:
            time.sleep(0.01)
        return measure_batch(requests)

    service._measure_batch = held


def test_thousand_concurrent_inflight_requests(live_server):
    service, port, _shutdown = live_server()
    hold_dispatch_until_inflight(service, 1000)
    registry = MetricsRegistry()
    summary = run_loadgen(
        LoadgenOptions(port=port, concurrency=1000, requests=1000),
        registry=registry,
    )

    assert summary["sent"] == 1000
    assert summary["outcomes"].get("served") == 1000
    # every worker was in flight at once against the cold batch window
    assert summary["server_stats"]["inflight_requests_peak"] >= 1000
    # one batch computed the distinct cells; everyone else coalesced or
    # hit the in-memory tier
    assert summary["sources"].get("computed", 0) <= 10

    latency = summary["latency"]
    assert latency["count"] == 1000
    assert 0 < latency["p50_s"] <= latency["p99_s"] <= latency["max_s"]

    # the quantiles come from the registry's histogram series
    series = registry.series("atm_service_request_seconds")
    assert series, "loadgen must record client-side latency series"
    total = sum(instrument.count for instrument in series.values())
    assert total == 1000

    # and the same snapshot renders as the dashboard's latency panel
    html = render_dashboard({}, snapshot=registry.snapshot())
    assert "Service request latency" in html
    assert "endpoint=client" in html

    text = render_summary(summary)
    assert "p50" in text and "p99" in text


def test_rejections_carry_deadline_verdicts(live_server):
    service, port, _shutdown = live_server()
    summary = run_loadgen(
        LoadgenOptions(
            port=port, concurrency=50, requests=100, deadline_s=1e-6
        )
    )
    assert summary["outcomes"].get("rejected_deadline") == 100
    verdict = summary["rejection_sample"]
    assert verdict["outcome"] == "rejected_deadline"
    assert verdict["admitted"] is False
    assert verdict["margin_s"] < 0
    assert verdict["deadline_s"] == pytest.approx(1e-6)
    assert "rejection verdict sample" in render_summary(summary)


def test_metrics_out_writes_openmetrics(tmp_path, live_server):
    service, port, _shutdown = live_server()
    out = tmp_path / "loadgen.prom"
    summary = run_loadgen(
        LoadgenOptions(port=port, concurrency=10, requests=20),
        metrics_out=str(out),
    )
    assert summary["sent"] == 20
    text = out.read_text(encoding="utf-8")
    assert 'endpoint="client"' in text
    assert text.endswith("# EOF\n")


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        from repro.service.loadgen import _CircuitBreaker

        breaker = _CircuitBreaker(threshold=3, cooldown_s=60.0)
        assert breaker.allow() and breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 1
        assert not breaker.allow()  # cooldown has not elapsed

    def test_half_open_probe_closes_or_reopens(self):
        from repro.service.loadgen import _CircuitBreaker

        breaker = _CircuitBreaker(threshold=1, cooldown_s=0.0)
        breaker.record_failure()
        assert breaker.state == "open"
        # zero cooldown: the next allow() is the half-open probe...
        assert breaker.allow() and breaker.state == "half-open"
        # ...and only one probe flies at a time
        assert not breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 2
        assert breaker.allow()  # half-open again
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_success_resets_the_failure_streak(self):
        from repro.service.loadgen import _CircuitBreaker

        breaker = _CircuitBreaker(threshold=2, cooldown_s=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed", "streak must reset on success"


class TestOutcomeTaxonomy:
    def test_503_splits_draining_from_backpressure(self):
        from repro.service.loadgen import _outcome_for

        draining = b'{"outcome": "rejected_draining", "admitted": false}'
        backpressure = b'{"outcome": "rejected_backpressure"}'
        assert _outcome_for(503, draining) == "rejected_draining"
        assert _outcome_for(503, backpressure) == "rejected_backpressure"
        assert _outcome_for(503, b"not json") == "rejected_backpressure"

    def test_plain_statuses_map_directly(self):
        from repro.service.loadgen import _outcome_for

        assert _outcome_for(200, b"") == "served"
        assert _outcome_for(400, b"") == "bad_request"
        assert _outcome_for(429, b"") == "rejected_deadline"
        assert _outcome_for(500, b"") == "error"


def test_clean_run_reports_empty_resilience_taxonomy(live_server):
    """A fault-free burst: zero retries, zero errors, but the full retry
    taxonomy is still present as zeros in the metrics exposition."""
    from repro.service.loadgen import RETRY_REASONS

    _service, port, _shutdown = live_server()
    registry = MetricsRegistry()
    summary = run_loadgen(
        LoadgenOptions(port=port, concurrency=5, requests=10),
        registry=registry,
    )
    assert summary["outcomes"].get("served") == 10
    assert summary["retries"] == 0
    assert summary["errors"] == {}
    assert summary["rejections"] == {}
    assert summary["breaker_opens"] == 0
    for reason in RETRY_REASONS:
        value = registry.value(
            "atm_service_retries", endpoint="client", reason=reason
        )
        assert value == 0.0, (reason, value)
    assert "resilience:" not in render_summary(summary)


def test_connection_refused_exhausts_attempts_into_the_error_taxonomy():
    """No server at all: every request retries, fails as a reset, and
    the summary names the failure instead of crashing the generator."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    summary = run_loadgen(
        LoadgenOptions(
            port=free_port,
            concurrency=1,
            requests=2,
            max_attempts=2,
            backoff_s=0.001,
            breaker_threshold=100,  # keep the breaker out of this test
        )
    )
    assert summary["outcomes"] == {"error": 2}
    assert summary["errors"] == {"reset": 2}
    assert summary["retries"] == 2  # one retry per request before giving up
    text = render_summary(summary)
    assert "resilience: 2 retries" in text
    assert "reset" in text


def test_rejections_breakdown_keys_the_503_taxonomy(live_server):
    """Backpressure 503s retry and land in the rejections breakdown."""
    _service, port, _shutdown = live_server(
        max_queue_cells=1, batch_window_s=0.4
    )
    summary = run_loadgen(
        LoadgenOptions(
            port=port,
            concurrency=8,
            requests=16,
            max_attempts=2,
            backoff_s=0.001,
            mix=tuple(
                {"platform": "ap:staran", "n": 96 + 8 * i, "periods": 1}
                for i in range(8)
            ),
        )
    )
    total = sum(summary["outcomes"].values())
    assert total == 16
    rejected = summary["outcomes"].get("rejected_backpressure", 0)
    if rejected:
        assert summary["rejections"] == {"rejected_backpressure": rejected}
        assert "rejections:" in render_summary(summary)
