"""The ``service`` workload: an open-loop Poisson window against a
restarted ``atm-repro serve`` over a disk-warm result cache.

Inputs come from the seed alone: a 140-cell hot set (7 platforms x 5
fleet sizes x 4 seeds) that set-up measures through the batch harness
into a cache-dir template, and an arrival schedule fixed before the
window opens.  Every ``FRESH_EVERY``-th request asks for a cell with a
seed never seen before, so the server must compute it; the rest ask
for hot cells, whose first touch reads the disk cache and whose repeats
hit the server's memory tier.

One client process sends the schedule over ``CONNECTIONS`` keep-alive
connections.  Each request is timed from its due time, so waiting
behind a stalled connection counts.  The client's own timer lateness
is measured on requests whose connection was free before they were
due; when its p99 passes ``LATENESS_LIMIT_MS`` the client fell behind
and the run is invalid rather than slow.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Open-loop arrival rate, requests per second (well below the knee).
RATE_PER_S = 100.0
#: A request is OK only with a 200, the right bytes, and at most this latency.
LATENCY_LIMIT_MS = 500.0
#: Client timer-lateness p99 above which a run is invalid.
LATENESS_LIMIT_MS = 50.0
#: Every FRESH_EVERY-th request asks for a never-seen cell (5%).
FRESH_EVERY = 20
#: Keep-alive connections of the one client process (at most nproc).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
PLATFORMS = (
    "cuda:titan-x-pascal",
    "cuda:gtx-880m",
    "cuda:geforce-9800-gt",
    "ap:staran",
    "simd:clearspeed-csx600",
    "mimd:xeon-16",
    "vector:avx512-16c",
)
NS = (96, 192, 288, 384, 480)
HOT_SEEDS = 4
PERIODS = 3
#: Fresh requests whose bodies are recomputed and compared after the window.
FRESH_SAMPLE = 8
#: Server starts per run; set-up time is the fastest of them.
SERVER_STARTS = 3

Cell = Tuple[str, int, int]


@dataclass(frozen=True)
class Request:
    due_s: float
    cell: Cell
    fresh: bool

    def body(self) -> bytes:
        platform, n, seed = self.cell
        return json.dumps({"platform": platform, "n": n, "seed": seed}, sort_keys=True).encode()


@dataclass
class Reply:
    due: float
    sent: float
    done: float
    status: int
    source: str
    body: bytes
    #: True when a connection was free before the request was due, so
    #: ``sent - due`` is the client's own timer lateness.
    on_time_slot: bool


def hot_cells(seed: int) -> List[Cell]:
    rng = random.Random(f"hot:{seed}")
    seeds = rng.sample(range(1, 1_000_000), HOT_SEEDS)
    return [(p, n, s) for s in seeds for p in PLATFORMS for n in NS]


def schedule(seed: int, seconds: float) -> List[Request]:
    """The window's requests, in due order; a pure function of the seed."""
    rng = random.Random(f"schedule:{seed}")
    hot = hot_cells(seed)
    dues: List[float] = []
    t = rng.expovariate(RATE_PER_S)
    while t < seconds:
        dues.append(t)
        t += rng.expovariate(RATE_PER_S)
    n_fresh = len(dues) // FRESH_EVERY
    fresh_seeds = iter(rng.sample(range(1_000_000, 2_000_000), n_fresh))
    sizes: List[int] = []
    out = []
    for i, due in enumerate(dues):
        if i % FRESH_EVERY == FRESH_EVERY - 1:
            if not sizes:
                sizes = list(NS)
                rng.shuffle(sizes)
            cell = (rng.choice(PLATFORMS), sizes.pop(), next(fresh_seeds))
            out.append(Request(due, cell, True))
        else:
            out.append(Request(due, rng.choice(hot), False))
    return out


# ---------------------------------------------------------------------------
# set-up scaffolding: the cache-dir template and the expected bytes
# ---------------------------------------------------------------------------


def build_template(root: Path, seed: int) -> Dict[Cell, bytes]:
    """Fill a result cache at ``root`` through the batch harness.

    Returns the report-encoded bytes of every hot cell, which served
    responses must equal.
    """
    from repro.harness.cache import ResultCache
    from repro.harness.sweep import sweep
    from repro.service.protocol import payload_bytes

    cache = ResultCache(root)
    expected: Dict[Cell, bytes] = {}
    for hot_seed in sorted({c[2] for c in hot_cells(seed)}):
        data = sweep(list(PLATFORMS), list(NS), seed=hot_seed, periods=PERIODS, cache=cache)
        for platform in PLATFORMS:
            for j, n in enumerate(NS):
                expected[(platform, n, hot_seed)] = payload_bytes(
                    data.measurements[platform][j].to_dict()
                )
    return expected


def recompute(cell: Cell) -> bytes:
    from repro.harness.sweep import measure_platform
    from repro.service.protocol import payload_bytes

    platform, n, seed = cell
    return payload_bytes(
        measure_platform(platform, n, seed=seed, periods=PERIODS, cache=False).to_dict()
    )


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One ``atm-repro serve --port 0 --cache-dir D`` child process."""

    def __init__(self, cache_dir: Path, env: Dict[str, str], trace_out: Optional[Path] = None):
        args = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.harness.cli", *args]
        else:
            here = Path(__file__).resolve().parent
            cmd = [sys.executable, str(here / "serve.py"), "--trace-out", str(trace_out), "--", *args]
        self._log = open(cache_dir.parent / f"{cache_dir.name}.log", "w", encoding="utf-8")
        self._port: Optional[int] = None
        self._listening = threading.Event()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        try:
            if not self._listening.wait(60) or self._port is None:
                raise RuntimeError("server did not report its port")
            while not self._healthy():
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _healthy(self) -> bool:
        try:
            return self.get("/healthz")[0] == 200
        except ConnectionError:
            return False

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if self._port is None and "listening on http://" in line:
                self._port = int(line.rsplit(":", 1)[1])
                self._listening.set()
        self._listening.set()

    @property
    def port(self) -> int:
        assert self._port is not None
        return self._port

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------------
# the open-loop client
# ---------------------------------------------------------------------------


async def _read_reply(reader: asyncio.StreamReader) -> Tuple[int, str, bytes]:
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    headers = {}
    for line in head[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers.get("x-atm-source", ""), body


async def _send_all(port: int, requests: List[Request]) -> Tuple[float, List[Reply]]:
    payloads = [
        b"POST /v1/cell HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        for body in (r.body() for r in requests)
    ]
    replies: List[Optional[Reply]] = [None] * len(requests)
    pending = iter(range(len(requests)))
    clock = time.perf_counter
    base = clock() + 0.05

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for i in pending:
                due = base + requests[i].due_s
                free = clock() < due
                if free:
                    await asyncio.sleep(due - clock())
                sent = clock()
                writer.write(payloads[i])
                status, source, body = await _read_reply(reader)
                replies[i] = Reply(due, sent, clock(), status, source, body, free)
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return base, [r for r in replies if r is not None]


def run_window(port: int, requests: List[Request]) -> Tuple[float, List[Reply]]:
    """Send the schedule; returns the window's start instant and replies."""
    return asyncio.run(_send_all(port, requests))


# ---------------------------------------------------------------------------
# one window, checked
# ---------------------------------------------------------------------------


@dataclass
class Window:
    latencies_ms: List[float]
    lateness_ms: List[float]
    wall_s: float
    ok: int
    attempted: int
    errors: List[str]
    peak_rss_mb: float
    setups_s: List[float]
    server_stats: Dict[str, Any]


def measure_window(
    requests: List[Request],
    expected: Dict[Cell, bytes],
    template: Path,
    work: Path,
    env: Dict[str, str],
    *,
    trace_out: Optional[Path] = None,
    starts: int = SERVER_STARTS,
) -> Window:
    """Start the server ``starts`` times (timing each), run one window on the last."""
    setups = []
    server = None
    for attempt in range(starts):
        cache_dir = work / f"cache-{attempt}{'-traced' if trace_out else ''}"
        shutil.copytree(template, cache_dir)
        last = attempt == starts - 1
        server = Server(cache_dir, env, trace_out if last else None)
        setups.append(server.setup_s)
        if not last:
            server.stop()
    assert server is not None
    try:
        base, replies = run_window(server.port, requests)
        status, stats_body = server.get("/stats")
        stats = json.loads(stats_body) if status == 200 else {}
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    errors, wrong = check_replies(requests, replies, expected, stats)
    latencies = [(r.done - r.due) * 1000.0 for r in replies]
    ok = sum(
        1 for i, (r, lat) in enumerate(zip(replies, latencies))
        if r.status == 200 and lat <= LATENCY_LIMIT_MS and i not in wrong
    )
    return Window(
        latencies_ms=latencies,
        lateness_ms=[(r.sent - r.due) * 1000.0 for r in replies if r.on_time_slot],
        wall_s=max(r.done for r in replies) - base,
        ok=ok,
        attempted=len(requests),
        errors=errors,
        peak_rss_mb=rss,
        setups_s=setups,
        server_stats=stats,
    )


def expected_counts(requests: List[Request]) -> Dict[str, int]:
    """Counts the schedule alone fixes; every run must repeat them exactly."""
    hot = [r.cell for r in requests if not r.fresh]
    n_fresh = sum(1 for r in requests if r.fresh)
    return {
        "requests": len(requests),
        "computed": n_fresh,
        "cache": len(hot),
        "disk_hits": len(set(hot)),
        "memory_hits": len(hot) - len(set(hot)),
        "journal_lines": 2 * n_fresh,
    }


def check_replies(
    requests: List[Request],
    replies: List[Reply],
    expected: Dict[Cell, bytes],
    stats: Dict[str, Any],
) -> Tuple[List[str], set]:
    """Check every status, every hot body, a fixed fresh sample and the
    exact counts; returns the errors and the requests with wrong bytes."""
    if len(replies) != len(requests):
        return [f"{len(replies)} replies to {len(requests)} requests"], set()
    errors = []
    bad = [i for i, r in enumerate(replies) if r.status != 200]
    if bad:
        errors.append(f"{len(bad)} non-200 replies, first at request {bad[0]}")
    wrong = {
        i for i, (q, r) in enumerate(zip(requests, replies))
        if not q.fresh and r.body != expected[q.cell]
    }
    fresh = [i for i, q in enumerate(requests) if q.fresh]
    for i in fresh[:: max(1, len(fresh) // FRESH_SAMPLE)][:FRESH_SAMPLE]:
        if replies[i].body != recompute(requests[i].cell):
            wrong.add(i)
    if wrong:
        errors.append(f"{len(wrong)} bodies differ from the batch harness, first at {min(wrong)}")
    want = expected_counts(requests)
    sources = {s: sum(1 for r in replies if r.source == s) for s in ("computed", "cache", "coalesced")}
    if sources != {"computed": want["computed"], "cache": want["cache"], "coalesced": 0}:
        errors.append(f"sources {sources} != computed {want['computed']}, cache {want['cache']}")
    journal = (stats.get("journal") or {}).get("recorded")
    if stats.get("served") != want["requests"] or journal != want["journal_lines"]:
        errors.append(
            f"server served {stats.get('served')} and journaled {journal} lines; expected "
            f"{want['requests']} and {want['journal_lines']}"
        )
    return errors, wrong
