"""CLI smoke tests: atm-repro profile and report --trace."""

from __future__ import annotations

import json

import pytest

from repro.harness.cli import main
from repro.harness.profile import profile_experiment


class TestProfileCommand:
    def test_single_backend_profile(self, capsys, tmp_path):
        trace = tmp_path / "prof.json"
        jsonl = tmp_path / "prof.jsonl"
        rc = main(
            [
                "profile", "fig4",
                "--backend", "cuda:titan-x-pascal",
                "--n", "96", "--periods", "1",
                "--trace", str(trace),
                "--jsonl", str(jsonl),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cuda:titan-x-pascal" in out
        assert "task1" in out and "task23" in out
        assert "wall clock" in out and "modelled time" in out
        # The counter section is the registry's series, after the tree.
        assert out.rstrip().splitlines()[-1].startswith("atm_trace_requests{")
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        for line in jsonl.read_text().splitlines():
            assert json.loads(line)["type"] in ("span", "event")

    def test_profile_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            profile_experiment("fig99")

    def test_profile_result_meets_coverage_bar(self):
        result = profile_experiment(
            "fig4", backend="cuda:titan-x-pascal", n=96, periods=1
        )
        assert result.coverage >= 0.9
        rendered = result.render()
        assert "attribution" in rendered
        assert result.collector.find("task1")


class TestReportTrace:
    def test_report_trace_writes_chrome_json(self, capsys, tmp_path):
        trace = tmp_path / "report-trace.json"
        out = tmp_path / "report.json"
        rc = main(
            ["report", "--only", "fig8", "--trace", str(trace), "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "task1" in names and "task23" in names
        # the structured report is untouched by tracing
        report = json.loads(out.read_text())
        assert "fig8" in report["experiments"]
