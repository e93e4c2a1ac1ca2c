"""Trace-replay equivalence suite (the shared functional-trace engine).

The contract under test (docs/performance.md): splitting a measurement
cell into one functional pass plus per-backend cost replays is an
*execution* detail — it may never change a byte of the produced data,
whether the trace comes from the in-process memo, the on-disk
:class:`~repro.harness.cache.TraceStore`, a worker pool, or a private
pass of the cell's own (the streamed pass of a cell whose trace exceeds
the resident budget).  The oracle is a hand-written direct run — the
backend's own task calls, as the schedules make them — so this suite
is what ties the schedules to the sweeps.
"""

import importlib
import json
import os

import pytest

from repro.backends.registry import resolve_backend
from repro.core.collision import DetectionMode
from repro.core.radar import generate_radar_frame
from repro.core.setup import setup_flight
from repro.core.trace import (
    FunctionalTrace,
    TraceBudget,
    compute_trace,
    estimate_trace_bytes,
)
from repro.harness.cache import TraceStore
from repro.harness.parallel import sweep_options
from repro.harness.sweep import (
    _TRACE_MEMO,
    PlatformMeasurement,
    measure_platform,
    sweep,
)
from repro.obs.metrics import recording

sweep_module = importlib.import_module("repro.harness.sweep")

JOBS = int(os.environ.get("ATM_REPRO_TEST_JOBS", "4"))

#: one representative of every backend family, plus the reference model.
REPLAY_BACKENDS = [
    "cuda:titan-x-pascal",
    "cuda:gtx-880m",
    "cuda:geforce-9800-gt",
    "ap:staran",
    "simd:clearspeed-csx600",
    "mimd:xeon-16",
    "vector:avx512-16c",
    "reference",
]

#: several (n, seed, mode) cells — n=200 leaves a partial warp/PE stripe.
CELLS = [
    (96, 2018, DetectionMode.SIGNED),
    (200, 2018, DetectionMode.PAPER_ABS),
    (192, 7, DetectionMode.SIGNED),
]


def canon(measurement) -> str:
    return json.dumps(measurement.to_dict(), sort_keys=True)


def direct_run(platform, n, *, seed, periods, mode) -> PlatformMeasurement:
    """The cell measured by direct execution, with no harness in between:
    a fresh backend runs every task on a live fleet."""
    backend = resolve_backend(platform)
    fleet = setup_flight(n, seed)
    task1 = []
    for period in range(periods):
        frame = generate_radar_frame(fleet, seed, period)
        task1.append(backend.track_and_correlate(fleet, frame).seconds)
    task23 = backend.detect_and_resolve(fleet, mode=mode)
    return PlatformMeasurement(
        platform=backend.name, n_aircraft=n, task1_seconds=task1, task23=task23
    )


def force_stream(monkeypatch, n, periods):
    """Set the one trace budget the harness reads just below the cell's
    estimated size, so the cell replays a private streamed pass."""
    below = estimate_trace_bytes(n, periods) - 1
    monkeypatch.setattr(
        sweep_module,
        "DEFAULT_TRACE_BUDGET",
        TraceBudget(max_resident_bytes=below, max_payload_bytes=below),
    )


@pytest.fixture(autouse=True)
def _fresh_memo():
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


class TestPerBackendEquivalence:
    @pytest.mark.parametrize("backend", REPLAY_BACKENDS)
    @pytest.mark.parametrize("n,seed,mode", CELLS)
    def test_replay_is_byte_identical_to_direct(
        self, backend, n, seed, mode, monkeypatch
    ):
        direct = canon(direct_run(backend, n, seed=seed, periods=2, mode=mode))
        # round-trip the trace through its array buffer on purpose: the
        # pool and the on-disk store both hand backends decoded buffers,
        # so that is the representation that must be exact.
        trace = FunctionalTrace.from_bytes(
            compute_trace(n, seed=seed, periods=2, mode=mode).to_bytes()
        )
        cell = dict(seed=seed, periods=2, mode=mode, cache=False)
        shared = measure_platform(backend, n, trace=trace, **cell)
        ambient = measure_platform(backend, n, **cell)
        force_stream(monkeypatch, n, 2)
        private = measure_platform(backend, n, **cell)
        assert canon(shared) == direct
        assert canon(ambient) == direct
        assert canon(private) == direct


class TestTracePolicy:
    def test_ambient_default_replays_and_memoizes(self):
        assert len(_TRACE_MEMO) == 0
        with recording() as r:
            first = measure_platform("reference", 96, periods=2, cache=False)
            second = measure_platform("reference", 96, periods=2, cache=False)
        assert len(_TRACE_MEMO) == 1
        assert r.value("atm_trace_requests", source="compute") == 1
        assert r.value("atm_trace_requests", source="memo") == 1
        assert canon(first) == canon(second)

    def test_trace_false_streams_without_memoizing(self, monkeypatch):
        """A cell above the resident budget streams a private pass and
        memoizes nothing; the budget, never the caller, picks the stream."""
        force_stream(monkeypatch, 96, 2)
        with recording() as r:
            measure_platform("reference", 96, periods=2, cache=False)
        assert len(_TRACE_MEMO) == 0
        assert r.value("atm_trace_requests", source="stream") == 1
        assert r.value("atm_trace_requests", source="compute") is None

    def test_no_switch_selects_the_records(self):
        """``sweep(trace=)`` keeps only the values that mean the one rule,
        and ``measure_platform(trace=)`` takes a trace or nothing."""
        with pytest.raises(ValueError, match="only None or True"):
            sweep(["reference"], ns=(96,), periods=1, trace=False)
        with pytest.raises(TypeError):
            measure_platform("reference", 96, periods=1, cache=False, trace=True)

    def test_mismatched_trace_is_rejected(self):
        trace = compute_trace(96, periods=2)
        with pytest.raises(ValueError):
            measure_platform(
                "reference", 192, periods=2, cache=False, trace=trace
            )
        with pytest.raises(TypeError):
            measure_platform(
                "reference", 96, periods=2, cache=False, trace={"not": "a trace"}
            )

    def test_memo_is_bounded(self):
        from repro.harness.sweep import _TRACE_MEMO_CAPACITY

        for i in range(_TRACE_MEMO_CAPACITY + 4):
            measure_platform("reference", 64 + i, periods=1, cache=False)
        assert len(_TRACE_MEMO) == _TRACE_MEMO_CAPACITY


class TestSweepEquivalence:
    def test_pool_with_traces_matches_serial_without(self):
        """Pool workers replaying shipped traces match the serial sweep,
        whose cells replay the in-process shared trace."""
        serial = sweep(REPLAY_BACKENDS, ns=(96, 192), periods=2)
        _TRACE_MEMO.clear()
        pooled = sweep(REPLAY_BACKENDS, ns=(96, 192), periods=2, jobs=JOBS)
        assert pooled.to_canonical_json() == serial.to_canonical_json()

    def test_trace_store_round_trip_is_byte_identical(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        with sweep_options(traces=store):
            cold = sweep(REPLAY_BACKENDS, ns=(96, 192), periods=2)
            assert store.stores == 2, "one stored trace per fleet size"
            _TRACE_MEMO.clear()  # force the second run through the disk tier
            with recording() as r:
                warm = sweep(REPLAY_BACKENDS, ns=(96, 192), periods=2)
        assert store.hits == 2
        assert store.stores == 2, "warm run must not re-store traces"
        assert r.value("atm_trace_requests", source="store") == 2
        assert r.value("atm_trace_requests", source="compute") is None
        assert warm.to_canonical_json() == cold.to_canonical_json()
