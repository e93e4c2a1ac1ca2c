"""Exporter tests: Chrome trace format and JSON lines."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import (
    chrome_trace,
    collecting,
    json_lines,
    write_chrome_trace,
    write_json_lines,
)


@pytest.fixture
def trace():
    """A small synthetic trace: task -> (child, child), then an event."""
    with collecting() as c:
        with obs.span("task1", "task", platform="fake") as t:
            with obs.span("fake.alpha", "fake") as sp:
                sp.add_modelled(0.75)
            with obs.span("fake.beta", "fake") as sp:
                sp.add_modelled(0.25)
            t.add_modelled(1.0)
        obs.event("checkpoint", note="mid")
    return c


class TestChromeTrace:
    def test_round_trips_as_json(self, trace):
        doc = json.loads(json.dumps(chrome_trace(trace)))
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_names_both_timelines(self, trace):
        meta = [e for e in chrome_trace(trace)["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"atm-repro", "wall clock", "modelled time"} <= names

    def test_every_span_appears_on_both_timelines(self, trace):
        events = chrome_trace(trace)["traceEvents"]
        for tid in (1, 2):
            xs = {e["name"] for e in events if e["ph"] == "X" and e["tid"] == tid}
            assert {"task1", "fake.alpha", "fake.beta"} <= xs

    def test_modelled_timeline_preserves_nesting(self, trace):
        events = chrome_trace(trace)["traceEvents"]
        modelled = {
            e["name"]: e for e in events if e["ph"] == "X" and e["tid"] == 2
        }
        parent = modelled["task1"]
        for child in ("fake.alpha", "fake.beta"):
            e = modelled[child]
            assert e["ts"] >= parent["ts"]
            assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-6
        # siblings laid end to end, in order
        assert modelled["fake.beta"]["ts"] == pytest.approx(
            modelled["fake.alpha"]["ts"] + modelled["fake.alpha"]["dur"]
        )

    def test_counter_and_instant_events(self, trace):
        events = chrome_trace(trace)["traceEvents"]
        # Counts live in the metrics registry: the trace has no counter tracks.
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "checkpoint"

    def test_write_chrome_trace(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), trace)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestJsonLines:
    def test_one_valid_object_per_line(self, trace):
        lines = [json.loads(l) for l in json_lines(trace).splitlines()]
        types = [l["type"] for l in lines]
        assert types == ["span"] * len(trace.spans) + ["event"] * len(trace.events)

    def test_span_record_fields(self, trace):
        lines = [json.loads(l) for l in json_lines(trace).splitlines()]
        spans = {l["name"]: l for l in lines if l["type"] == "span"}
        child = spans["fake.alpha"]
        assert child["parent"] == spans["task1"]["id"]
        assert child["modelled_s"] == pytest.approx(0.75)
        assert spans["task1"]["attrs"] == {"platform": "fake"}

    def test_write_json_lines(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_json_lines(str(path), trace)
        assert len(path.read_text().splitlines()) == len(trace.spans) + len(
            trace.events
        )
