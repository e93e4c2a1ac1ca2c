"""Live-server chaos: SIGKILL mid-burst + ``--resume`` byte-identity,
SIGTERM drain under load, and ``--inject-faults`` against the resilient
load generator (docs/service.md, "Crash safety & drain").

These tests run ``atm-repro serve`` as a real subprocess — the durable
journal must survive an actual SIGKILL, not a mocked one.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.core.collision import DetectionMode
from repro.harness.parallel import measure_cells
from repro.service import LoadgenOptions, payload_bytes, run_loadgen

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

#: the burst: >= 200 distinct admitted cells (the acceptance bar).
BURST_NS = tuple(range(8, 8 + 200))
PLATFORM = "ap:staran"


def _serve(tmp_path, *extra_args):
    """Start ``atm-repro serve --port 0`` and return (proc, port)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.harness.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    banner = []
    deadline = time.monotonic() + 60
    port = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner.append(line)
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        raise AssertionError(f"server never bound: {''.join(banner)}")
    return proc, port


def _read_remaining(proc):
    try:
        out = proc.stdout.read() or ""
    except ValueError:
        out = ""
    return out


def _post_body(cell):
    return json.dumps(cell).encode("utf-8")


def _fire_and_forget(port, cell):
    """Send a POST without reading the response (the burst under kill)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    body = _post_body(cell)
    head = (
        f"POST /v1/cell HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    )
    sock.sendall(head.encode("latin-1") + body)
    return sock


def _fetch(port, path, data=None, timeout=60):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method="POST" if data is not None else "GET",
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _count_admitted(journal_path):
    if not journal_path.exists():
        return 0
    count = 0
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        try:
            if json.loads(line).get("event") == "admitted":
                count += 1
        except json.JSONDecodeError:
            pass
    return count


@pytest.fixture(scope="module")
def burst_anchor():
    """The uninterrupted run's bytes: every burst cell straight from the
    batch harness, serialized exactly as a report.json fragment."""
    _names, rows = measure_cells(
        [PLATFORM], BURST_NS, seed=2018, periods=1, mode=DetectionMode.SIGNED
    )
    return {
        n: payload_bytes(measurement.to_dict())
        for n, measurement in zip(BURST_NS, rows[0])
    }


class TestSigkillResume:
    def test_sigkill_mid_burst_then_resume_is_byte_identical(
        self, tmp_path, burst_anchor
    ):
        """The acceptance scenario: >= 200 admitted requests, SIGKILL,
        restart with --resume — every admitted fingerprint is served or
        replayed and the payload bytes match an uninterrupted run."""
        cache_dir = tmp_path / "cache"
        journal = cache_dir / "service-journal.jsonl"
        # A huge batch window (and a deadline that tolerates it): cells
        # are admitted and journaled but never dispatched before the kill.
        proc, port = _serve(
            tmp_path,
            "--cache-dir",
            str(cache_dir),
            "--batch-window",
            "60",
            "--default-deadline",
            "300",
        )
        sockets = []
        try:
            for n in BURST_NS:
                sockets.append(
                    _fire_and_forget(
                        port, {"platform": PLATFORM, "n": n, "periods": 1}
                    )
                )
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if _count_admitted(journal) >= len(BURST_NS):
                    break
                time.sleep(0.05)
            admitted = _count_admitted(journal)
            assert admitted >= 200, f"only {admitted} admissions journaled"
            proc.kill()  # SIGKILL: no drain, no flush, no goodbye
            proc.wait(timeout=30)
        finally:
            for sock in sockets:
                sock.close()
            if proc.poll() is None:
                proc.kill()

        resumed, port = _serve(
            tmp_path,
            "--cache-dir",
            str(cache_dir),
            "--batch-window",
            "0.05",
            "--resume",
        )
        try:
            deadline = time.monotonic() + 120
            pending = None
            while time.monotonic() < deadline:
                _status, _headers, payload = _fetch(port, "/stats")
                stats = json.loads(payload.decode("utf-8"))
                pending = stats["journal"]["pending"]
                if pending == 0:
                    break
                time.sleep(0.1)
            assert pending == 0, f"{pending} admitted cells never replayed"
            # Every admitted fingerprint came back: cells served before
            # the kill restore from their journaled payloads, the rest
            # re-enter the dispatcher (the batch-size cap may have flushed
            # an early batch before the kill landed).
            assert (
                stats["restored_cells"] + stats["replayed_cells"]
                == len(BURST_NS)
            ), stats
            assert stats["journal"]["dropped_lines"] <= 1  # one torn tail at most
            # Every burst cell now answers from the replayed results,
            # byte-identical to the uninterrupted batch run.
            for n in BURST_NS:
                status, headers, payload = _fetch(
                    port,
                    "/v1/cell",
                    data=_post_body(
                        {"platform": PLATFORM, "n": n, "periods": 1}
                    ),
                )
                assert status == 200
                assert headers["X-Atm-Source"] == "cache", n
                assert payload == burst_anchor[n], f"bytes differ at n={n}"
        finally:
            resumed.send_signal(signal.SIGTERM)
            try:
                resumed.wait(timeout=30)
            except subprocess.TimeoutExpired:
                resumed.kill()
                resumed.wait(timeout=10)


class TestSigtermDrain:
    def test_sigterm_drains_inflight_and_rejects_new(
        self, tmp_path, burst_anchor
    ):
        """Zero dropped in-flight requests: a cell admitted before
        SIGTERM is still answered (byte-identical), while work arriving
        during the drain gets 503 + Retry-After."""
        cache_dir = tmp_path / "cache"
        journal = cache_dir / "service-journal.jsonl"
        proc, port = _serve(
            tmp_path, "--cache-dir", str(cache_dir), "--batch-window", "3",
            "--drain-timeout", "60",
        )
        inflight = None
        try:
            cell = {"platform": PLATFORM, "n": BURST_NS[0], "periods": 1}
            inflight = _fire_and_forget(port, cell)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if _count_admitted(journal) >= 1:
                    break
                time.sleep(0.02)
            assert _count_admitted(journal) >= 1
            proc.send_signal(signal.SIGTERM)
            # Give the loop's signal handler a beat to flip admission.
            time.sleep(0.2)
            # While the batch window drains, new work is turned away.
            rejected = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    _fetch(
                        port,
                        "/v1/cell",
                        data=_post_body(
                            {"platform": PLATFORM, "n": 9999, "periods": 1}
                        ),
                        timeout=5,
                    )
                except urllib.error.HTTPError as exc:
                    rejected = exc
                    break
                except (ConnectionError, OSError):
                    break  # already fully shut down: too late to observe
                time.sleep(0.05)
            if rejected is not None:
                assert rejected.code == 503
                assert rejected.headers.get("Retry-After")
                verdict = json.loads(rejected.read().decode("utf-8"))
                assert verdict["outcome"] == "rejected_draining"
            # The in-flight request completes: read its full response.
            inflight.settimeout(60)
            raw = b""
            while b"\r\n\r\n" not in raw:
                raw += inflight.recv(65536)
            head, _, rest = raw.partition(b"\r\n\r\n")
            assert b" 200 " in head.splitlines()[0]
            length = next(
                int(line.split(b":")[1])
                for line in head.splitlines()
                if line.lower().startswith(b"content-length")
            )
            while len(rest) < length:
                rest += inflight.recv(65536)
            assert rest == burst_anchor[BURST_NS[0]]
            proc.wait(timeout=60)
            out = _read_remaining(proc)
            assert "atm-repro serve: draining" in out
            assert "drained in" in out
            assert proc.returncode == 0
        finally:
            if inflight is not None:
                inflight.close()
            if proc.poll() is None:
                proc.kill()


class TestServiceFaultInjection:
    def test_loadgen_rides_through_injected_resets_and_stalls(self, tmp_path):
        """--inject-faults resets/stalls vs the client's retry loop:
        every request is eventually served, the retry taxonomy shows
        why, and the summary carries the errors/rejections breakdown."""
        proc, port = _serve(
            tmp_path,
            "--batch-window",
            "0.02",
            "--inject-faults",
            "reset=0.3,stall=0.2,hang=0.05,seed=7",
        )
        try:
            summary = run_loadgen(
                LoadgenOptions(
                    port=port,
                    requests=40,
                    concurrency=4,
                    mix=({"platform": PLATFORM, "n": 96, "periods": 1},),
                    timeout_s=10.0,
                    max_attempts=12,
                    backoff_s=0.01,
                    jitter_seed=7,
                )
            )
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert summary["outcomes"].get("served") == 40, summary["outcomes"]
        assert summary["retries"] > 0
        assert summary["errors"] == {}
        assert set(summary["rejections"]) <= {
            "rejected_backpressure",
            "rejected_draining",
        }

    def test_client_timeouts_open_the_breaker_on_a_stalled_server(
        self, tmp_path
    ):
        """A fully stalled server exhausts the client's attempts with
        reason=timeout; the taxonomy names the failure in the report."""
        proc, port = _serve(
            tmp_path,
            "--inject-faults",
            "stall=1,hang=30,seed=3,attempts=99",
        )
        try:
            summary = run_loadgen(
                LoadgenOptions(
                    port=port,
                    requests=3,
                    concurrency=1,
                    mix=({"platform": PLATFORM, "n": 96, "periods": 1},),
                    timeout_s=0.2,
                    max_attempts=2,
                    backoff_s=0.01,
                    breaker_threshold=4,
                    breaker_cooldown_s=0.05,
                )
            )
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert summary["outcomes"].get("served") is None
        assert summary["errors"].get("timeout", 0) + summary["errors"].get(
            "circuit_open", 0
        ) == 3
        assert summary["retries"] >= 3  # each request retried at least once
        assert summary["breaker_opens"] >= 1
