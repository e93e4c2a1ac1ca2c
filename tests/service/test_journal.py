"""The durable request journal: torn lines, replay, injection
(docs/service.md, "Crash safety & drain")."""

from __future__ import annotations

import json

import pytest

from repro.core.collision import DetectionMode
from repro.harness.faults import (
    FaultPlan,
    decode_journal_line,
    encode_journal_line,
)
from repro.harness.parallel import measure_cells
from repro.service import CellRequest, RequestJournal


@pytest.fixture(scope="module")
def measurement():
    """One real measurement to journal (ap:staran is the cheapest)."""
    _names, rows = measure_cells(
        ["ap:staran"], (32,), seed=2018, periods=1, mode=DetectionMode.SIGNED
    )
    return rows[0][0]


CELL = CellRequest(platform="ap:staran", n=32, seed=2018, periods=1)


class TestLineHelpers:
    def test_round_trip_and_digest(self):
        line = encode_journal_line({"event": "admitted", "key": "k", "cell": {}})
        record = decode_journal_line(line)
        assert record["event"] == "admitted" and record["key"] == "k"

    def test_torn_and_tampered_lines_are_none(self):
        line = encode_journal_line({"event": "served", "key": "k"})
        assert decode_journal_line(line[:-2]) is None
        tampered = line.replace('"served"', '"admitted"')
        assert decode_journal_line(tampered) is None
        assert decode_journal_line("not json at all") is None
        assert decode_journal_line("[1, 2, 3]") is None


class TestRequestJournal:
    def test_admit_then_serve_round_trip(self, tmp_path, measurement):
        path = tmp_path / "j.jsonl"
        journal = RequestJournal(path)
        journal.record_admitted("key-1", CELL.to_dict())
        assert journal.pending() == {"key-1": CELL.to_dict()}
        journal.record_served("key-1", measurement)
        assert journal.pending() == {}

        loaded = RequestJournal(path, resume=True)
        assert loaded.pending() == {}
        assert loaded.lookup("key-1").to_dict() == measurement.to_dict()
        assert loaded.stats()["dropped_lines"] == 0

    def test_unserved_admissions_are_pending_on_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RequestJournal(path)
        journal.record_admitted("key-1", CELL.to_dict())
        journal.record_admitted("key-2", {**CELL.to_dict(), "n": 64})

        loaded = RequestJournal(path, resume=True)
        assert set(loaded.pending()) == {"key-1", "key-2"}
        assert loaded.lookup("key-1") is None

    def test_fresh_run_discards_previous_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RequestJournal(path).record_admitted("key-1", CELL.to_dict())
        fresh = RequestJournal(path, resume=False)
        assert fresh.pending() == {}
        assert RequestJournal(path, resume=True).pending() == {}

    def test_torn_tail_is_dropped_and_counted(self, tmp_path, measurement):
        path = tmp_path / "j.jsonl"
        journal = RequestJournal(path)
        journal.record_admitted("key-1", CELL.to_dict())
        journal.record_served("key-1", measurement)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "admitted", "key": "key-2", "cel')  # SIGKILL

        loaded = RequestJournal(path, resume=True)
        assert loaded.dropped_lines == 1
        assert loaded.lookup("key-1") is not None
        assert "key-2" not in loaded.pending()

    def test_append_after_torn_tail_survives_resume(self, tmp_path, measurement):
        """SIGKILL mid-append, resume, append: the new line starts a line
        of its own instead of being glued onto the torn one."""
        path = tmp_path / "j.jsonl"
        RequestJournal(path).record_admitted("key-1", CELL.to_dict())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # SIGKILL: no newline
        resumed = RequestJournal(path, resume=True)
        assert resumed.dropped_lines == 1
        resumed.record_served("key-2", measurement)
        again = RequestJournal(path, resume=True)
        assert again.dropped_lines == 1
        assert again.lookup("key-2").to_dict() == measurement.to_dict()

    def test_undecodable_served_payload_is_dropped_at_load(self, tmp_path):
        """A served line whose digest holds but whose payload is not a
        measurement is dropped as torn, so lookup never raises."""
        path = tmp_path / "j.jsonl"
        path.write_text(
            encode_journal_line(
                {"event": "served", "key": "key-1", "measurement": {"n": 1}}
            )
            + "\n",
            encoding="utf-8",
        )
        loaded = RequestJournal(path, resume=True)
        assert loaded.dropped_lines == 1
        assert loaded.lookup("key-1") is None

    def test_tampered_measurement_is_dropped(self, tmp_path, measurement):
        path = tmp_path / "j.jsonl"
        RequestJournal(path).record_served("key-1", measurement)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"n_aircraft"', '"n_aircrafT"'))
        loaded = RequestJournal(path, resume=True)
        assert loaded.dropped_lines == 1
        assert loaded.lookup("key-1") is None

    def test_duplicate_records_append_once(self, tmp_path, measurement):
        path = tmp_path / "j.jsonl"
        journal = RequestJournal(path)
        for _ in range(3):
            journal.record_admitted("key-1", CELL.to_dict())
            journal.record_served("key-1", measurement)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        events = [json.loads(line)["event"] for line in lines]
        assert events == ["admitted", "served"]

    def test_served_key_is_never_re_admitted(self, tmp_path, measurement):
        path = tmp_path / "j.jsonl"
        journal = RequestJournal(path)
        journal.record_served("key-1", measurement)
        journal.record_admitted("key-1", CELL.to_dict())
        assert journal.pending() == {}

    def test_corrupt_journal_injection_is_survivable(self, tmp_path):
        """An injected bit-flip must be detected and dropped, not
        half-read — the torn line's client simply re-requests."""
        path = tmp_path / "j.jsonl"
        plan = FaultPlan(rates={"corrupt-journal": 1.0}, seed=7)
        journal = RequestJournal(path, faults=plan)
        journal.record_admitted("key-1", CELL.to_dict())
        loaded = RequestJournal(path, resume=True)
        assert loaded.dropped_lines + len(loaded.pending()) >= 1
        # the flip is deterministic: a second identical run (same plan,
        # same file name, so the same flipped position) is byte-equal
        other = tmp_path / "twin" / "j.jsonl"
        twin = RequestJournal(
            other, faults=FaultPlan(rates={"corrupt-journal": 1.0}, seed=7)
        )
        twin.record_admitted("key-1", CELL.to_dict())
        assert path.read_bytes() == other.read_bytes()


class TestServedLineOnDispatchThread:
    def test_failed_append_fails_its_batch_not_the_dispatcher(
        self, tmp_path, monkeypatch
    ):
        """A ``served`` line that cannot be written (ENOSPC) fails the
        cells of its own batch; the dispatcher lives on and computes the
        next cell."""
        import asyncio
        import errno

        from repro.service import ServiceConfig, SweepService

        record_served = RequestJournal.record_served
        appends = []

        def full_disk_once(self, key, measurement):
            appends.append(key)
            if len(appends) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            record_served(self, key, measurement)

        monkeypatch.setattr(RequestJournal, "record_served", full_disk_once)

        async def scenario():
            service = SweepService(
                ServiceConfig(
                    batch_window_s=0.01, journal_path=str(tmp_path / "j.jsonl")
                )
            )
            await service.start()
            try:
                with pytest.raises(RuntimeError, match="batch dispatch failed"):
                    await service.submit_cell(CELL, deadline_s=10.0)
                second = CellRequest(platform="ap:staran", n=64, seed=2018, periods=1)
                source, measurement = await service.submit_cell(
                    second, deadline_s=10.0
                )
                return source, measurement, service.journal.stats()
            finally:
                await service.stop()

        source, measurement, stats = asyncio.run(scenario())
        assert source == "computed" and measurement.n_aircraft == 64
        assert stats["served"] == 1 and len(appends) == 2
