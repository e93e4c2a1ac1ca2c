"""Unit tests for the functional-trace artifact (repro.core.trace)."""

import numpy as np
import pytest

from repro.core.collision import DetectionMode
from repro.core.radar import generate_radar_frame
from repro.core.resolution import detect_and_resolve
from repro.core.setup import setup_flight
from repro.core.trace import (
    TRACE_SCHEMA_VERSION,
    FunctionalTrace,
    compute_trace,
    trace_key,
)
from repro.core.tracking import correlate


class TestComputeTrace:
    def test_records_one_period_record_per_period(self):
        trace = compute_trace(96, periods=3)
        assert len(trace.period_records) == 3
        assert trace.collision is not None

    def test_rejects_zero_periods(self):
        with pytest.raises(ValueError):
            compute_trace(96, periods=0)

    def test_matches_its_own_parameters_only(self):
        trace = compute_trace(96, seed=2018, periods=2, mode=DetectionMode.SIGNED)
        assert trace.matches(n=96, seed=2018, periods=2, mode=DetectionMode.SIGNED)
        assert trace.matches(n=96, seed=2018, periods=2, mode="signed")
        for wrong in (
            dict(n=192, seed=2018, periods=2, mode=DetectionMode.SIGNED),
            dict(n=96, seed=1, periods=2, mode=DetectionMode.SIGNED),
            dict(n=96, seed=2018, periods=3, mode=DetectionMode.SIGNED),
            dict(n=96, seed=2018, periods=2, mode=DetectionMode.PAPER_ABS),
        ):
            assert not trace.matches(**wrong)

    def test_trace_mirrors_the_measurement_protocol(self):
        """The recorded artifacts equal a hand-run of the same protocol."""
        trace = compute_trace(96, seed=2018, periods=2)
        fleet = setup_flight(96, 2018)
        for period, rec in enumerate(trace.period_records):
            frame = generate_radar_frame(fleet, 2018, period)
            stats = correlate(fleet, frame)
            assert rec.n_aircraft == fleet.n
            assert rec.frame_n == frame.n
            assert rec.stats.rounds_executed == stats.rounds_executed
            assert rec.stats.candidate_pairs == stats.candidate_pairs
            assert rec.stats.matched == stats.matched
            np.testing.assert_array_equal(rec.match_with, frame.match_with)
            np.testing.assert_array_equal(rec.r_match, fleet.r_match)
            np.testing.assert_array_equal(rec.matched_radar, fleet.matched_radar)
        det, res = detect_and_resolve(fleet, DetectionMode.SIGNED)
        assert trace.collision.det.pairs_checked == det.pairs_checked
        assert trace.collision.det.conflicts == det.conflicts
        assert trace.collision.res.trials_evaluated == res.trials_evaluated
        np.testing.assert_array_equal(trace.collision.alt, fleet.alt)


class TestRoundTrip:
    def test_bytes_round_trip_is_exact(self):
        trace = compute_trace(128, seed=2018, periods=2)
        raw = trace.to_bytes()
        back = FunctionalTrace.from_bytes(raw)
        assert back.to_bytes() == raw
        # array dtypes survive the round trip (backends index with these)
        rec = back.period_records[0]
        assert rec.match_with.dtype == np.int64
        assert rec.r_match.dtype == np.int8
        assert rec.matched_radar.dtype == np.int64
        assert back.collision.alt.dtype == np.float64
        assert back.collision.res.attempts.dtype == np.int64
        assert rec.stats.round_radar_ids[0].dtype == np.int64

    def test_from_bytes_rejects_unknown_schema(self, monkeypatch):
        from repro.core import trace as trace_module

        trace = compute_trace(64, periods=1)
        monkeypatch.setattr(
            trace_module, "TRACE_SCHEMA_VERSION", TRACE_SCHEMA_VERSION + 1
        )
        raw = trace.to_bytes()
        monkeypatch.undo()
        with pytest.raises(ValueError, match="schema"):
            FunctionalTrace.from_bytes(raw)

    def test_from_bytes_rejects_a_damaged_buffer(self):
        raw = compute_trace(64, periods=1).to_bytes()
        flipped = bytearray(raw)
        flipped[-1] ^= 0x10
        for bad in (b"", raw[:20], raw[:-1], bytes(flipped), b"{not a trace"):
            with pytest.raises(ValueError):
                FunctionalTrace.from_bytes(bad)


class TestTraceKey:
    def test_key_is_stable_and_matches_instance_key(self):
        trace = compute_trace(96, seed=2018, periods=2)
        k = trace_key(n=96, seed=2018, periods=2, mode=DetectionMode.SIGNED)
        assert trace.key() == k
        assert len(k) == 64  # sha256 hex

    def test_key_separates_every_parameter(self):
        base = dict(n=96, seed=2018, periods=2, mode=DetectionMode.SIGNED)
        keys = {trace_key(**base)}
        for change in (
            dict(base, n=192),
            dict(base, seed=1),
            dict(base, periods=3),
            dict(base, mode=DetectionMode.PAPER_ABS),
            dict(base, dropout=0.1),
            dict(base, clutter=4),
        ):
            keys.add(trace_key(**change))
        assert len(keys) == 7
