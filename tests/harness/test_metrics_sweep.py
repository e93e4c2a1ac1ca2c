"""Deadline SLO metrics through the sweep path, and their determinism.

The contract (docs/observability.md): the deadline families embedded in
a report are a pure function of the measured cells — byte-identical for
any worker count or cache state — and the paper's deadline claims are
reproducible from the metrics snapshot *alone*, without re-reading the
measurement tables.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter

import pytest

from repro.analysis.deadlines import deadline_verdicts
from repro.core.trace import TraceBudget
from repro.harness.cache import ResultCache
from repro.harness.faults import FaultPlan, RetryPolicy
from repro.harness.figures import deadline_table
from repro.harness.parallel import sweep_options
from repro.harness.report import build_report
from repro.harness.sweep import _TRACE_MEMO, sweep
from repro.obs import aggregate_spans, collecting
from repro.obs.metrics import recording
from repro.core.canonical import canonical_json
from repro.service.journal import RequestJournal

sweep_module = importlib.import_module("repro.harness.sweep")

JOBS = int(os.environ.get("ATM_REPRO_TEST_JOBS", "4"))

PLATFORMS = [
    "ap:staran",
    "cuda:titan-x-pascal",
    "simd:clearspeed-csx600",
    "mimd:xeon-16",
]


class TestDeadlineReproduction:
    def test_paper_verdicts_from_snapshot_alone(self):
        """Table 2's qualitative claims, read back from metrics only."""
        with recording() as registry:
            deadline_table(ns=(960, 1920), platforms=PLATFORMS, major_cycles=1)
        verdicts = deadline_verdicts(registry.snapshot())

        for clean in ("ap:staran", "cuda:titan-x-pascal", "simd:clearspeed-csx600"):
            assert verdicts[clean]["total_misses"] == 0
            assert verdicts[clean]["never_misses"] is True
            assert verdicts[clean]["first_miss_n"] is None

        mimd = verdicts["mimd:xeon-16"]
        assert mimd["never_misses"] is False
        assert mimd["total_misses"] > 0
        assert mimd["first_miss_n"] == 1920, (
            "the MIMD model must first miss past the knee at n=1920"
        )
        assert mimd["misses_by_n"].get(960, 0) == 0

    def test_sweep_cells_record_margins_and_periods(self):
        with recording() as registry:
            sweep(["ap:staran"], ns=(96,), periods=2)
        snap = registry.snapshot()
        margins = snap["families"]["atm_deadline_margin_seconds"]["series"]
        assert margins, "sweep cells must observe deadline margins"
        # Counters-with-zeros: a clean run still materializes the miss
        # counter so "zero misses" is a readable fact, not an absence.
        assert registry.value(
            "atm_deadline_misses", platform="ap:staran", n_aircraft=96, source="sweep"
        ) == 0.0
        assert registry.value(
            "atm_deadline_periods", platform="ap:staran", n_aircraft=96, source="sweep"
        ) > 0.0


class TestMetricsDeterminism:
    NS = (96, 192)
    MIXED = ["reference", "cuda:gtx-880m", "mimd:xeon-16"]

    def _snapshot(self, jobs, cache=None):
        with recording() as registry:
            sweep(self.MIXED, ns=self.NS, periods=1, jobs=jobs, cache=cache)
        return registry.snapshot(deterministic_only=True)

    def test_snapshot_byte_identical_across_jobs(self):
        assert canonical_json(self._snapshot(1)) == canonical_json(
            self._snapshot(JOBS)
        )

    def test_snapshot_byte_identical_cold_vs_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = self._snapshot(1, cache=cache)
        warm = self._snapshot(1, cache=cache)
        assert cache.hits > 0
        assert canonical_json(cold) == canonical_json(warm)

    def test_aggregate_byte_identical_across_jobs(self):
        def agg(jobs):
            with collecting() as c:
                sweep(self.MIXED, ns=self.NS, periods=1, jobs=jobs)
            return aggregate_spans(c).to_canonical_json(deterministic_only=True)

        assert agg(1) == agg(JOBS)

    def test_report_embeds_deterministic_metrics(self):
        serial = build_report(only=["tbl-deadline"], jobs=1)
        parallel = build_report(only=["tbl-deadline"], jobs=JOBS)
        assert serial["metrics"]["deterministic_only"] is True
        assert "atm_deadline_margin_seconds" in serial["metrics"]["families"]
        # Scheduling-dependent families must not leak into the report.
        assert "atm_shards" not in serial["metrics"]["families"]
        assert canonical_json(serial["metrics"]) == canonical_json(
            parallel["metrics"]
        )


class TestWorkerTraceAdoption:
    def test_pool_worker_spans_land_under_their_shard(self):
        with collecting() as c:
            sweep(["ap:staran", "reference"], ns=(96,), periods=1, jobs=2)
        shards = [s for s in c.spans if s.name == "harness.shard"]
        assert shards, "pool sweep must emit shard spans"
        shard_ids = {s.span_id for s in shards}
        tasks = [s for s in c.spans if s.cat == "task"]
        assert tasks, "worker task spans must be adopted into the parent trace"
        by_id = {s.span_id: s for s in c.spans}

        def has_shard_ancestor(span):
            cur = span
            while cur.parent_id is not None:
                if cur.parent_id in shard_ids:
                    return True
                cur = by_id[cur.parent_id]
            return False

        assert all(has_shard_ancestor(t) for t in tasks)

    def test_adopted_spans_preserve_platform_attribution(self):
        with collecting() as c:
            sweep(["ap:staran"], ns=(96,), periods=1, jobs=2)
        agg = aggregate_spans(c)
        assert "ap:staran" in agg.platforms()
        assert agg.stats[("ap:staran", "task", "task1")].calls == 1


class TestOperationalCounters:
    def test_shard_sources_are_labeled(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with recording() as registry:
            sweep(["reference"], ns=(96, 192), periods=1, jobs=2, cache=cache)
            sweep(["reference"], ns=(96, 192), periods=1, jobs=2, cache=cache)
        assert registry.value("atm_shards", source="pool") == 2.0
        assert registry.value("atm_shards", source="cache") == 2.0

    def test_store_requests_labeled_by_outcome(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with recording() as registry:
            sweep(["reference"], ns=(96,), periods=1, cache=cache)
            sweep(["reference"], ns=(96,), periods=1, cache=cache)
        miss = registry.value("atm_store_requests", store="result", outcome="miss")
        hit = registry.value("atm_store_requests", store="result", outcome="hit")
        stored = registry.value("atm_store_requests", store="result", outcome="store")
        assert (miss, hit, stored) == (1.0, 1.0, 1.0)

    def test_trace_requests_counted(self):
        with recording() as registry:
            sweep(["ap:staran", "reference"], ns=(96,), periods=1)
        total = sum(
            entry["value"]
            for entry in registry.snapshot()["families"]["atm_trace_requests"][
                "series"
            ]
        )
        assert total > 0


class TestSpanRegistryAgreement:
    """The collector's spans and the registry's series are the whole
    record of a sweep, so every count the registry holds must equal the
    number of spans the collector holds for the same event."""

    PLATFORMS = ["reference", "cuda:gtx-880m"]
    NS = (96, 192)
    #: fault kinds counted without a span of their own.
    SPANLESS_KINDS = {"injected", "corrupt", "retries", "stall", "reset"}

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        _TRACE_MEMO.clear()
        yield
        _TRACE_MEMO.clear()

    def _sweep(self, ns=NS, **kwargs):
        return sweep(self.PLATFORMS, ns=ns, periods=1, **kwargs)

    @staticmethod
    def _spans(collector, name, attr):
        return Counter(s.attrs[attr] for s in collector.find(name))

    @staticmethod
    def _series(registry, family, label):
        return Counter(
            {
                json.loads(key)[label]: instrument.value
                for key, instrument in registry.series(family).items()
            }
        )

    def _record(self, **kwargs):
        """Run the sweep under both records; assert they agree and return
        the ``harness.shard`` and ``harness.fault`` span counts and the
        registry."""
        with collecting() as c, recording() as r:
            self._sweep(**kwargs)
        shards = self._spans(c, "harness.shard", "source")
        assert shards, "every sweep cell emits a shard span"
        assert shards == self._series(r, "atm_shards", "source")
        traces = self._spans(c, "harness.trace", "source")
        assert traces == self._series(r, "atm_trace_requests", "source")
        faults = self._spans(c, "harness.fault", "kind")
        counted = self._series(r, "atm_faults", "kind")
        for kind in self.SPANLESS_KINDS:
            counted.pop(kind, None)
        assert faults == counted
        return shards, faults, r

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_injected_oserrors(self, jobs):
        plan = FaultPlan({"oserror": 1.0}, seed=1)
        retry = RetryPolicy(max_attempts=3, backoff_s=0.001)
        with sweep_options(faults=plan, retry=retry):
            shards, faults, _ = self._record(jobs=jobs)
        assert shards == {"inline" if jobs == 1 else "pool": 4}
        assert faults == {"os-error": 4}

    def test_journal_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with sweep_options(journal=RequestJournal(path)):
            self._sweep(ns=self.NS[:1])
        with sweep_options(journal=RequestJournal(path, resume=True)):
            shards, _, _ = self._record()
        assert shards == {"journal": 2, "inline": 2}

    def test_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._sweep(cache=cache)
        shards, _, _ = self._record(cache=cache)
        assert shards == {"cache": 4}

    def test_pool_workers_ship_their_metrics(self, monkeypatch):
        """Under a budget too small to ship any trace, each pool worker
        streams a private pass; its trace counts and bytes reach the
        parent registry, and the deadline series are still counted once
        per cell, exactly as a serial run counts them."""
        tiny = TraceBudget(max_resident_bytes=1024, max_payload_bytes=1024)
        monkeypatch.setattr(sweep_module, "DEFAULT_TRACE_BUDGET", tiny)
        shards, _, r = self._record(jobs=2, cache=False)
        assert shards == {"pool": 4}
        assert r.value("atm_trace_requests", source="stream") == 4
        assert r.series("atm_trace_bytes")
        with recording() as serial:
            self._sweep(jobs=1, cache=False)
        assert canonical_json(r.snapshot(deterministic_only=True)) == canonical_json(
            serial.snapshot(deterministic_only=True)
        )
