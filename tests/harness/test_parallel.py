"""Parallel-determinism and cache-equivalence tests for the sweep engine.

The contract under test (docs/parallel-and-caching.md): worker count,
scheduling order and cache state are *execution* details — none of them
may change a single byte of the produced data.
"""

import json
import os
import time

import pytest

from repro.backends.registry import all_platform_names
from repro.harness.cache import ResultCache
from repro.harness.parallel import current_options, sweep_options
from repro.harness.report import build_report
from repro.harness.sweep import SweepData, sweep
from repro.obs import collecting
from repro.obs.metrics import recording

#: worker count exercised by the pool tests; `make test-parallel` raises
#: it via the environment to shake out pool-related flakiness.
JOBS = int(os.environ.get("ATM_REPRO_TEST_JOBS", "4"))

#: includes the non-deterministic-timing MIMD model on purpose — per-cell
#: fresh instances make even its cells order-independent.
MIXED = ["reference", "cuda:gtx-880m", "mimd:xeon-16"]


class TestParallelDeterminism:
    def test_jobs_1_and_jobs_n_are_byte_identical(self):
        serial = sweep(MIXED, ns=(96, 192), periods=1, jobs=1)
        parallel = sweep(MIXED, ns=(96, 192), periods=1, jobs=JOBS)
        assert serial.to_canonical_json() == parallel.to_canonical_json()

    def test_platform_order_follows_input_not_completion(self):
        data = sweep(["ap:staran", "reference", "cuda:titan-x-pascal"],
                     ns=(96,), periods=1, jobs=JOBS)
        assert data.platforms() == ["ap:staran", "reference", "cuda:titan-x-pascal"]

    def test_sweepdata_round_trips_through_dict_form(self):
        data = sweep(["reference"], ns=(96, 192), periods=1)
        again = SweepData.from_dict(data.to_dict())
        assert again.to_canonical_json() == data.to_canonical_json()

    def test_backend_instances_still_work_under_jobs(self):
        """Live instances can't cross the process boundary; they must run
        in-parent (in matrix order) and merge into the same structure."""
        from repro.cuda.backend import CudaBackend

        inst = CudaBackend("gtx-880m", block_size=128)
        serial = sweep([inst, "reference"], ns=(96, 192), periods=1, jobs=1)
        parallel = sweep([inst, "reference"], ns=(96, 192), periods=1, jobs=JOBS)
        assert serial.to_canonical_json() == parallel.to_canonical_json()


class TestCacheEquivalence:
    def test_cached_rerun_is_byte_identical_and_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = sweep(MIXED, ns=(96, 192), periods=1, cache=cache)
        assert cache.misses == 6 and cache.stores == 6 and cache.hits == 0
        warm = sweep(MIXED, ns=(96, 192), periods=1, cache=cache)
        assert cache.hits == 6, "warm run must be served entirely from cache"
        assert cache.stores == 6, "warm run must not re-store anything"
        assert warm.to_canonical_json() == cold.to_canonical_json()

    def test_cache_and_pool_compose(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = sweep(MIXED, ns=(96, 192), periods=1, jobs=JOBS, cache=cache)
        warm = sweep(MIXED, ns=(96, 192), periods=1, jobs=JOBS, cache=cache)
        assert cache.hits == 6
        assert warm.to_canonical_json() == cold.to_canonical_json()

    def test_warm_full_sweep_under_quarter_of_cold_wall_time(self, tmp_path):
        """The acceptance criterion: a warm re-run of the full sweep is
        served from the cache (hit/miss counters prove it) and finishes
        in well under 25% of the cold wall time."""
        cache = ResultCache(tmp_path / "cache")
        platforms = all_platform_names()
        ns = (96, 480)

        t0 = time.perf_counter()
        cold = sweep(platforms, ns=ns, periods=1, cache=cache)
        cold_s = time.perf_counter() - t0
        cells = len(platforms) * len(ns)
        assert (cache.hits, cache.misses) == (0, cells)

        t0 = time.perf_counter()
        warm = sweep(platforms, ns=ns, periods=1, cache=cache)
        warm_s = time.perf_counter() - t0
        assert (cache.hits, cache.misses) == (cells, cells)
        assert warm.to_canonical_json() == cold.to_canonical_json()
        assert warm_s < 0.25 * cold_s, (
            f"warm {warm_s:.3f}s vs cold {cold_s:.3f}s — cache is not paying off"
        )


class TestReportEquivalence:
    SUBSET = ["fig5", "abl-fused"]

    def _strip_host(self, report):
        # host/python describe the machine, not the experiment data.
        return {k: v for k, v in report.items() if k not in ("host", "python")}

    def test_parallel_report_is_byte_identical(self):
        serial = build_report(only=self.SUBSET, jobs=1)
        parallel = build_report(only=self.SUBSET, jobs=JOBS)
        assert json.dumps(self._strip_host(serial), sort_keys=True) == json.dumps(
            self._strip_host(parallel), sort_keys=True
        )

    def test_cached_report_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fresh = build_report(only=self.SUBSET, cache=cache)
        assert cache.stores > 0
        cached = build_report(only=self.SUBSET, cache=cache)
        assert cache.hits >= cache.stores, "second report must hit the cache"
        assert json.dumps(self._strip_host(fresh), sort_keys=True) == json.dumps(
            self._strip_host(cached), sort_keys=True
        )


class TestSweepOptions:
    def test_defaults(self):
        opts = current_options()
        assert opts.jobs == 1 and opts.cache is None

    def test_options_scope_and_restore(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with sweep_options(jobs=2, cache=cache) as opts:
            assert opts.jobs == 2
            assert current_options().cache is cache
            with sweep_options(jobs=1):
                # inner scope inherits the cache, overrides jobs
                assert current_options().jobs == 1
                assert current_options().cache is cache
        assert current_options().jobs == 1 and current_options().cache is None

    def test_ambient_cache_is_used_by_sweep(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with sweep_options(cache=cache):
            sweep(["reference"], ns=(96,), periods=1)
        assert cache.stores == 1

    def test_explicit_false_disables_ambient_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with sweep_options(cache=cache):
            sweep(["reference"], ns=(96,), periods=1, cache=False)
        assert cache.stores == 0

    def test_fault_tolerance_options_scope_and_restore(self, tmp_path):
        """retry/faults/journal ride the same ambient scope (an *empty*
        journal is falsy — it must still resolve by identity, not truth)."""
        from repro.harness.faults import FaultPlan, RetryPolicy
        from repro.service.journal import RequestJournal

        plan = FaultPlan({"oserror": 0.5}, seed=3)
        retry = RetryPolicy(max_attempts=5)
        journal = RequestJournal(tmp_path / "journal.jsonl")
        assert len(journal) == 0  # the falsy case under test
        with sweep_options(retry=retry, faults=plan, journal=journal):
            opts = current_options()
            assert opts.retry is retry
            assert opts.faults is plan
            assert opts.journal is journal
            with sweep_options(jobs=2):
                # inner scope inherits all three
                assert current_options().journal is journal
                assert current_options().faults is plan
            with sweep_options(faults=False, journal=False):
                # explicit False clears, as for cache/trace
                assert current_options().faults is None
                assert current_options().journal is None
        restored = current_options()
        assert restored.faults is None and restored.journal is None
        assert restored.retry == RetryPolicy()


class TestShardSpans:
    def test_every_shard_emits_a_span(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with collecting() as c, recording() as r:
            sweep(MIXED, ns=(96, 192), periods=1, cache=cache)
        shards = c.find("harness.shard")
        assert len(shards) == 6
        assert {s.attrs["source"] for s in shards} == {"inline"}
        assert all(s.modelled_s > 0 for s in shards)
        assert sum(s.value for s in r.series("atm_shards").values()) == 6
        assert r.value("atm_shards", source="inline") == 6

        with collecting() as c, recording() as r:
            sweep(MIXED, ns=(96, 192), periods=1, cache=cache)
        shards = c.find("harness.shard")
        assert {s.attrs["source"] for s in shards} == {"cache"}
        assert r.value("atm_shards", source="cache") == 6

    def test_direct_measure_platform_cache_hit_emits_shard_span(self, tmp_path):
        """Figure generators call measure_platform directly (no sweep);
        a cache hit elides the task spans, so the shard span is the only
        thing keeping a warm --trace attributable."""
        from repro.harness.sweep import measure_platform

        cache = ResultCache(tmp_path / "cache")
        with collecting() as c:
            measure_platform("reference", 96, periods=1, cache=cache)
        assert not c.find("harness.shard"), "a miss measures; task spans suffice"
        assert c.find("task1") and c.find("task23")

        with collecting() as c:
            m = measure_platform("reference", 96, periods=1, cache=cache)
        (shard,) = c.find("harness.shard")
        assert shard.attrs["source"] == "cache"
        assert shard.attrs["platform"] == "reference"
        assert shard.modelled_s == pytest.approx(
            sum(m.task1_seconds) + m.task23.seconds
        )
        assert not c.find("task1"), "hit must not re-run the tasks"

    def test_pool_shards_are_attributed(self):
        with collecting() as c:
            sweep(["reference", "ap:staran"], ns=(96, 192), periods=1, jobs=JOBS)
        shards = c.find("harness.shard")
        assert len(shards) == 4
        assert {s.attrs["source"] for s in shards} == {"pool"}
        assert {(s.attrs["platform"], s.attrs["n_aircraft"]) for s in shards} == {
            ("reference", 96), ("reference", 192),
            ("ap:staran", 96), ("ap:staran", 192),
        }


class TestCliFlags:
    def test_report_jobs_and_cache_flags(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache_dir = tmp_path / "cache"
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main([
            "report", "--only", "abl-fused", "--out", str(out1),
            "--jobs", "2", "--cache-dir", str(cache_dir),
        ]) == 0
        assert main([
            "report", "--only", "abl-fused", "--out", str(out2),
            "--cache-dir", str(cache_dir),
        ]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_pooled_fig4_over_a_cache_dir_matches_serial(self, tmp_path, capsys):
        """``report --only fig4 --jobs 2 --cache-dir D`` cold, warm, and
        warm again with only the stored traces left (the pool ships them
        as array buffers) is byte-identical to ``--jobs 1``."""
        import shutil

        from repro.harness.cli import main
        from repro.harness.sweep import _TRACE_MEMO

        def report(name, *flags):
            # Each run starts without in-process traces, as a new
            # process would, so the store is what serves them.
            _TRACE_MEMO.clear()
            out = tmp_path / f"{name}.json"
            assert main(["report", "--only", "fig4", "--out", str(out), *flags]) == 0
            return out.read_bytes()

        cache_dir = tmp_path / "cache"
        pooled = ("--jobs", "2", "--cache-dir", str(cache_dir))
        serial = report("serial", "--jobs", "1")
        cold = report("cold", *pooled)
        warm = report("warm", *pooled)
        shutil.rmtree(cache_dir / "v2")
        capsys.readouterr()
        metrics = tmp_path / "from-traces.prom"
        from_traces = report("from-traces", *pooled, "--metrics-out", str(metrics))
        assert cold == warm == from_traces == serial
        assert "quarantined" not in capsys.readouterr().err
        requests = [
            line for line in metrics.read_text(encoding="utf-8").splitlines()
            if line.startswith("atm_trace_requests")
        ]
        assert any('source="store"' in line for line in requests), requests
        assert not any('source="pool"' in line for line in requests), requests

    def test_no_cache_flag(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache_dir = tmp_path / "cache"
        assert main([
            "report", "--only", "abl-fused", "--out", str(tmp_path / "r.json"),
            "--cache-dir", str(cache_dir), "--no-cache",
        ]) == 0
        assert not cache_dir.exists()
        capsys.readouterr()

    def test_cache_stats_and_clear_subcommands(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache_dir = tmp_path / "cache"
        assert main([
            "report", "--only", "abl-fused", "--out", str(tmp_path / "r.json"),
            "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "bytes" in out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries  0" in capsys.readouterr().out
