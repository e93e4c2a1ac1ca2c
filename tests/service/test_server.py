"""The sweep service over real HTTP: byte-identity, coalescing,
admission rejections, stats and metrics (docs/service.md)."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core import sweepline
from repro.harness.faults import decode_journal_line
from repro.harness.figures import fig5
from repro.service import (
    CellRequest,
    RequestJournal,
    ServiceConfig,
    SweepService,
    payload_bytes,
)

NS = (96, 192)
PERIODS = 1


@pytest.fixture(scope="module")
def report_fragment():
    """The fig5 fragment exactly as ``atm-repro report`` would embed it.

    Serialized through the report writer's settings and re-loaded, so
    the comparison below is against bytes that round-tripped a real
    ``report.json`` document, not against live Python objects.
    """
    fig = fig5(ns=NS, periods=PERIODS)
    document = json.dumps(
        {"experiments": {"fig5": {"data": fig.to_dict()}}},
        indent=2,
        sort_keys=True,
    )
    data = json.loads(document)["experiments"]["fig5"]["data"]
    assert data["measurements"], "figures must embed raw measurements"
    return data


async def _http(reader, writer, method, path, body=b""):
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    status = int((await reader.readline()).split(b" ")[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    payload = await reader.readexactly(length) if length else b""
    return status, headers, payload


async def _post_cell(port, body_obj):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _http(
            reader, writer, "POST", "/v1/cell", json.dumps(body_obj).encode()
        )
    finally:
        writer.close()
        await writer.wait_closed()


def _run_service(coro_fn, **config_kwargs):
    """Start a port-0 server, run ``coro_fn(service, port)``, stop."""

    async def runner():
        config_kwargs.setdefault("batch_window_s", 0.02)
        service = SweepService(ServiceConfig(port=0, **config_kwargs))
        server = await service.serve()
        try:
            return await coro_fn(service, service.bound_port)
        finally:
            server.close()
            await server.wait_closed()
            await service.stop()

    return asyncio.run(runner())


class TestByteIdentity:
    def test_served_cell_equals_report_fragment(self, report_fragment):
        async def scenario(service, port):
            results = {}
            for platform in report_fragment["measurements"]:
                for j, n in enumerate(report_fragment["ns"]):
                    status, headers, payload = await _post_cell(
                        port,
                        {"platform": platform, "n": n, "periods": PERIODS},
                    )
                    assert status == 200, payload
                    results[(platform, j)] = (headers["x-atm-source"], payload)
            return results

        results = _run_service(scenario)
        for (platform, j), (_source, payload) in results.items():
            fragment = report_fragment["measurements"][platform][j]
            assert payload == payload_bytes(fragment), (platform, j)

    def test_byte_identity_survives_coalescing(self, report_fragment):
        platform = next(iter(report_fragment["measurements"]))

        async def scenario(service, port):
            body = {"platform": platform, "n": NS[0], "periods": PERIODS}
            return await asyncio.gather(
                *(_post_cell(port, body) for _ in range(8))
            )

        responses = _run_service(scenario)
        expected = payload_bytes(
            report_fragment["measurements"][platform][0]
        )
        sources = []
        for status, headers, payload in responses:
            assert status == 200
            assert payload == expected
            sources.append(headers["x-atm-source"])
        assert sources.count("computed") == 1
        assert sources.count("coalesced") == len(responses) - 1

    def test_byte_identity_under_jobs_4_sweep(self, report_fragment):
        platforms = sorted(report_fragment["measurements"])

        async def scenario(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                body = json.dumps(
                    {
                        "platforms": platforms,
                        "ns": list(NS),
                        "periods": PERIODS,
                    }
                ).encode()
                return await _http(reader, writer, "POST", "/v1/sweep", body)
            finally:
                writer.close()
                await writer.wait_closed()

        status, _headers, payload = _run_service(scenario, jobs=4)
        assert status == 200, payload
        served = json.loads(payload.decode("utf-8"))
        assert served["ns"] == list(NS)
        for platform in platforms:
            for j in range(len(NS)):
                assert payload_bytes(
                    served["measurements"][platform][j]
                ) == payload_bytes(
                    report_fragment["measurements"][platform][j]
                ), (platform, j)


class TestHttpSurface:
    def test_healthz_platforms_stats_metrics(self):
        async def scenario(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                health = await _http(reader, writer, "GET", "/healthz")
                platforms = await _http(reader, writer, "GET", "/v1/platforms")
                stats = await _http(reader, writer, "GET", "/stats")
                metrics = await _http(reader, writer, "GET", "/metrics")
                missing = await _http(reader, writer, "GET", "/nope")
                return health, platforms, stats, metrics, missing
            finally:
                writer.close()
                await writer.wait_closed()

        health, platforms, stats, metrics, missing = _run_service(scenario)
        assert health[0] == 200
        assert "ap:staran" in json.loads(platforms[2].decode())["platforms"]
        body = json.loads(stats[2].decode())
        assert body["served"] == 0 and body["jobs"] == 1
        assert metrics[0] == 200
        # no traffic yet: a valid, empty exposition (families appear as
        # soon as requests record series — TestHttpSurface below)
        assert metrics[2].endswith(b"# EOF\n")
        assert missing[0] == 404

    def test_malformed_requests_are_400(self):
        async def scenario(service, port):
            return (
                await _post_cell(port, {"platform": "no-such", "n": 96}),
                await _post_cell(port, {"platform": "ap:staran"}),
            )

        for status, _headers, payload in _run_service(scenario):
            assert status == 400
            assert b"error" in payload

    def test_deadline_rejection_carries_the_verdict(self):
        async def scenario(service, port):
            return await _post_cell(
                port,
                {
                    "platform": "mimd:xeon-16",
                    "n": 1920,
                    "deadline_s": 1e-6,
                },
            )

        status, headers, payload = _run_service(scenario)
        assert status == 429
        assert headers.get("retry-after")
        verdict = json.loads(payload.decode("utf-8"))
        assert verdict["outcome"] == "rejected_deadline"
        assert verdict["admitted"] is False
        assert verdict["margin_s"] < 0
        assert verdict["estimated_s"] > verdict["deadline_s"]

    def test_backpressure_rejection_is_503(self):
        async def scenario_sweep(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                pending = asyncio.ensure_future(
                    _post_cell(port, {"platform": "ap:staran", "n": 96})
                )
                for _ in range(40):
                    if service._pending_cells:
                        break
                    await asyncio.sleep(0.005)
                body = json.dumps(
                    {"platforms": ["ap:staran"], "ns": [97, 98, 99]}
                ).encode()
                rejected = await _http(
                    reader, writer, "POST", "/v1/sweep", body
                )
                first = await pending
                return first, rejected
            finally:
                writer.close()
                await writer.wait_closed()

        first, rejected = _run_service(
            scenario_sweep, max_queue_cells=2, batch_window_s=0.2
        )
        assert first[0] == 200
        assert rejected[0] == 503
        verdict = json.loads(rejected[2].decode("utf-8"))
        assert verdict["outcome"] == "rejected_backpressure"

    def test_stats_and_metrics_track_traffic(self):
        async def scenario(service, port):
            await _post_cell(port, {"platform": "ap:staran", "n": 96, "periods": 1})
            await _post_cell(port, {"platform": "ap:staran", "n": 96, "periods": 1})
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                stats = await _http(reader, writer, "GET", "/stats")
                metrics = await _http(reader, writer, "GET", "/metrics")
            finally:
                writer.close()
                await writer.wait_closed()
            return json.loads(stats[2].decode()), metrics[2].decode()

        stats, exposition = _run_service(scenario)
        assert stats["served"] == 2
        assert stats["batches"] >= 1
        assert stats["cell_estimate_s"] > 0
        assert 'outcome="served"' in exposition
        assert "atm_service_request_seconds" in exposition
        assert "atm_service_batch_cells" in exposition


class TestSubmitApi:
    def test_memory_tier_serves_warm_repeats(self):
        async def scenario(service, port):
            request = CellRequest(platform="ap:staran", n=96, periods=1)
            first = await service.submit_cell(request)
            second = await service.submit_cell(request)
            return first, second

        (src1, m1), (src2, m2) = _run_service(scenario)
        assert (src1, src2) == ("computed", "cache")
        assert payload_bytes(m1.to_dict()) == payload_bytes(m2.to_dict())

    def test_sweep_source_is_cache_when_fully_warm(self):
        async def scenario(service, port):
            cells = [
                CellRequest(platform="ap:staran", n=n, periods=1) for n in NS
            ]
            first_source, _ = await service.submit_sweep(cells)
            second_source, measurements = await service.submit_sweep(cells)
            return first_source, second_source, measurements

        first_source, second_source, measurements = _run_service(scenario)
        assert first_source == "computed"
        assert second_source == "cache"
        assert len(measurements) == len(NS)


class TestOneAdmissionPath:
    """``/v1/cell``, ``/v1/sweep`` and replay admit cells one way, under
    the key the sweep engine commits them under."""

    def test_pruned_cell_is_found_under_its_commit_key(self, tmp_path, monkeypatch):
        """From the pruning threshold up the engine keys a cell by its
        pruned pass; a repeat request must find it, and its admission
        must close."""
        monkeypatch.setattr(sweepline, "PRUNE_MIN_N", 64)
        path = tmp_path / "journal.jsonl"

        async def scenario(service, port):
            request = CellRequest(platform="ap:staran", n=96, periods=1)
            first, _ = await service.submit_cell(request)
            second, _ = await service.submit_cell(request)
            return first, second, service.stats()

        first, second, stats = _run_service(scenario, journal_path=str(path))
        assert (first, second) == ("computed", "cache")
        assert stats["batches"] == 1
        assert stats["journal"]["pending"] == 0
        assert RequestJournal(path, resume=True).pending() == {}

    def test_sweep_looks_each_cell_up_once_and_admits_only_new_cells(
        self, tmp_path
    ):
        """Cells [A, A, B, C]: B is stored, C is queued by an earlier
        request and not yet dispatched; only A is admitted."""
        path = tmp_path / "journal.jsonl"
        a, b, c, d = (
            CellRequest(platform="ap:staran", n=n, periods=1)
            for n in (32, 64, 96, 128)
        )

        async def scenario(service, port):
            await service.submit_cell(b)
            queued_c = asyncio.ensure_future(service.submit_cell(c))
            await asyncio.sleep(0)
            assert c.cache_key() in service._inflight_cells
            gets = []
            store_get = service.store.get

            def counting_get(key):
                # The event loop's lookups, not the engine's probes.
                if threading.current_thread() is threading.main_thread():
                    gets.append(key)
                return store_get(key)

            service.store.get = counting_get
            sweep = await service.submit_sweep([a, a, b, c])
            del service.store.get
            queued_d = asyncio.ensure_future(service.submit_cell(d))
            await asyncio.sleep(0)
            coalesced = await service.submit_sweep([b, d])
            return (
                gets,
                sweep,
                coalesced,
                (await queued_c)[0],
                (await queued_d)[0],
                service.stats()["coalesced"],
            )

        gets, sweep, coalesced, c_source, d_source, n_coalesced = _run_service(
            scenario, journal_path=str(path), batch_window_s=0.2
        )
        assert sorted(gets) == sorted({a.cache_key(), b.cache_key(), c.cache_key()})
        source, measurements = sweep
        assert source == "computed"
        assert [m.n_aircraft for m in measurements] == [32, 32, 64, 96]
        assert coalesced[0] == "coalesced"
        assert [m.n_aircraft for m in coalesced[1]] == [64, 128]
        assert (c_source, d_source) == ("computed", "computed")
        assert n_coalesced == 2
        records = [
            decode_journal_line(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        admitted = [r["key"] for r in records if r["event"] == "admitted"]
        assert admitted == [b.cache_key(), c.cache_key(), a.cache_key(), d.cache_key()]

    def test_rejected_sweep_journals_and_queues_nothing(self, tmp_path):
        path = tmp_path / "journal.jsonl"

        async def scenario(service, port):
            from repro.service.server import AdmissionRejected

            cells = [
                CellRequest(platform="ap:staran", n=n, periods=1)
                for n in (32, 64, 96)
            ]
            with pytest.raises(AdmissionRejected) as rejected:
                await service.submit_sweep(cells)
            return rejected.value.verdict, service

        verdict, service = _run_service(
            scenario, journal_path=str(path), max_queue_cells=2
        )
        assert verdict.outcome == "rejected_backpressure"
        assert service.journal.recorded == 0 and not path.exists()
        assert service._queue.empty() and service._inflight_cells == {}
        assert service.stats()["pending_cells"] == 0
        assert service.stats()["rejected"] == 1
