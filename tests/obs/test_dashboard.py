"""Tests for the self-contained HTML dashboard (repro.obs.dashboard)."""

from __future__ import annotations

import re

from repro.obs import Collector, render_dashboard, write_dashboard
from repro.obs.metrics import MetricsRegistry


def _registry() -> MetricsRegistry:
    r = MetricsRegistry()
    for platform, n, margin in (
        ("ap:staran", 960, 0.43),
        ("cuda:titan-x-pascal", 1920, 0.49),
        ("mimd:xeon-16", 1920, -0.07),
    ):
        r.observe(
            "atm_deadline_margin_seconds",
            margin,
            platform=platform,
            n_aircraft=n,
            period="tracking",
            source="sweep",
        )
        r.inc(
            "atm_deadline_misses",
            1.0 if margin < 0 else 0.0,
            platform=platform,
            n_aircraft=n,
            source="sweep",
        )
        r.inc("atm_deadline_periods", platform=platform, n_aircraft=n, source="sweep")
    r.inc("atm_shards", 3.0, source="pool")
    return r


def _report() -> dict:
    return {
        "paper": "ATM accelerator comparison",
        "library_version": "0.0-test",
        "profile": "quick",
        "seed": 2018,
        "python": "3.x",
        "experiments": {
            "fig4": {
                "data": {
                    "ns": [960, 1920],
                    "series": {
                        "cuda:titan-x-pascal": [0.01, 0.02],
                        "ap:staran": [0.2, 0.4],
                        "simd:clearspeed-csx600": [0.1, 0.2],
                        "mimd:xeon-16": [0.3, 0.6],
                    },
                    "title": "Task 1 execution time",
                },
                "rendered": "fig4",
            },
            "ext-vector": {
                "data": {
                    "ns": [960, 1920],
                    "seconds": [0.05, 0.11],
                    "platform": "vector:cray-style",
                },
                "rendered": "ext-vector",
            },
        },
        "metrics": _registry().snapshot(deterministic_only=True),
    }


def _collector() -> Collector:
    c = Collector()
    with c.span("harness.shard", cat="harness"):
        with c.span("task1", cat="task", platform="ap:staran") as t:
            t.add_modelled(0.4)
            with c.span("correlate", cat="kernel") as k:
                k.add_modelled(0.3)
    return c


class TestRenderDashboard:
    def test_self_contained_no_external_references(self):
        html = render_dashboard(_report(), collector=_collector())
        assert not re.search(r"https?://", html)
        assert "<script" not in html

    def test_all_platform_families_present(self):
        html = render_dashboard(_report(), collector=_collector())
        for family in ("cuda", "ap", "simd", "mimd", "vector"):
            assert family in html

    def test_sections_render(self):
        html = render_dashboard(
            _report(), snapshot=_registry().snapshot(), collector=_collector()
        )
        assert "<svg" in html
        # Deadline verdicts, margin chart, flamegraph, counter panels.
        assert "mimd:xeon-16" in html
        assert "atm_deadline_margin_seconds" in html
        assert "correlate" in html
        # Counts come from the registry snapshot alone.
        assert "Metric counters" in html and "atm_shards" in html
        assert "Trace counters" not in html

    def test_snapshot_defaults_to_report_metrics(self):
        html = render_dashboard(_report())
        assert "atm_deadline_misses" in html

    def test_empty_report_still_renders(self):
        html = render_dashboard({"experiments": {}, "metrics": {}})
        assert html.startswith("<!DOCTYPE html>") or "<html" in html


class TestWriteDashboard:
    def test_write(self, tmp_path):
        out = tmp_path / "dash.html"
        write_dashboard(str(out), _report(), collector=_collector())
        text = out.read_text(encoding="utf-8")
        assert "<html" in text
        assert not re.search(r"https?://", text)


class TestServiceResilienceFamilies:
    def test_counter_panels_render_the_crash_safety_families(self):
        """The drain/retry/replay families from the crash-safe service
        (docs/service.md) land in the generic counter panels — including
        their explicit zeros."""
        r = _registry()
        r.inc("atm_service_retries", 0.0, endpoint="client", reason="timeout")
        r.inc("atm_service_retries", 3.0, endpoint="client", reason="reset")
        r.set("atm_service_drain_seconds", 1.25)
        for kind in ("restored", "replayed", "dropped"):
            r.inc("atm_service_journal_replayed", 0.0, kind=kind)
        r.inc("atm_service_journal_replayed", 64.0, kind="restored")
        html = render_dashboard(_report(), snapshot=r.snapshot())
        assert "atm_service_retries" in html
        assert "atm_service_drain_seconds" in html
        assert "atm_service_journal_replayed" in html
        # zero-valued series render too (counters-with-zeros)
        assert "timeout" in html and "dropped" in html
