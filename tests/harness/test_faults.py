"""Chaos suite for the fault-tolerant sweep executor (repro.harness.faults).

The contract under test (docs/robustness.md): worker crashes, hung
shards, transient I/O errors and store corruption are *execution*
details — whenever retries, pool rebuilds or inline degradation let the
sweep complete, the produced bytes are identical to a fault-free serial
run, and every failure is visible — a ``harness.fault`` span on the
obs collector and an ``atm_faults`` count in the metrics registry —
rather than silently swallowed.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import parallel
from repro.harness.cache import ResultCache, TraceStore
from repro.harness.faults import (
    FAULT_KINDS,
    FaultPlan,
    RetryPolicy,
    parse_fault_spec,
)
from repro.harness.parallel import sweep_options
from repro.harness.sweep import _TRACE_MEMO, sweep
from repro.obs import collecting
from repro.obs.metrics import recording
from repro.service.journal import RequestJournal

JOBS = int(os.environ.get("ATM_REPRO_TEST_JOBS", "2"))

#: small, fast matrix shared by the chaos runs.
PLATFORMS = ["reference", "cuda:gtx-880m"]
NS = (96, 192)

#: no-waiting retry policy so chaos tests stay quick.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.001)


def clean_sweep_json() -> str:
    """The fault-free serial baseline every chaos run must reproduce."""
    return sweep(PLATFORMS, ns=NS, periods=1).to_canonical_json()


def measured_shards(registry) -> float:
    """Shards measured this run, inline or on the pool."""
    return sum(
        registry.value("atm_shards", source=source) or 0.0
        for source in ("inline", "pool")
    )


# ---------------------------------------------------------------------------
# the FaultPlan itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rate_one_always_injects_on_faulted_attempts_only(self):
        plan = FaultPlan({"crash": 1.0}, seed=0)
        assert plan.should_inject("crash", "reference@96", 0)
        assert not plan.should_inject("crash", "reference@96", 1), (
            "retries beyond faulted_attempts must run clean"
        )

    def test_rate_zero_never_injects(self):
        plan = FaultPlan({"crash": 0.0}, seed=0)
        assert not any(
            plan.should_inject("crash", f"s@{n}", 0) for n in range(100)
        )

    def test_unknown_kind_and_bad_rate_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan({"meteor": 1.0})
        with pytest.raises(ValueError, match="within"):
            FaultPlan({"crash": 1.5})

    def test_worker_fault_probes_kinds_in_order(self):
        plan = FaultPlan({"crash": 1.0, "timeout": 1.0}, seed=0)
        assert plan.worker_fault("any@96", 0) == "crash"
        assert plan.worker_fault("any@96", 1) is None

    def test_spec_round_trip(self):
        plan = parse_fault_spec("crash=0.5,timeout=0.25,seed=7,attempts=2,hang=0.5")
        assert plan.rates == {"crash": 0.5, "timeout": 0.25}
        assert plan.seed == 7
        assert plan.faulted_attempts == 2
        assert plan.hang_s == 0.5
        assert parse_fault_spec(plan.to_spec()) == plan

    def test_bad_specs_raise(self):
        for spec in ("meteor=1", "crash", "crash=x", "seed=1.5"):
            with pytest.raises(ValueError):
                parse_fault_spec(spec)

    def test_corrupt_flips_exactly_one_bit(self, tmp_path):
        path = tmp_path / "entry.json"
        original = b'{"measurement": 1}'
        path.write_bytes(original)
        FaultPlan(seed=3).corrupt(path)
        mutated = path.read_bytes()
        assert mutated != original and len(mutated) == len(original)
        diffs = [i for i, (a, b) in enumerate(zip(original, mutated)) if a != b]
        assert len(diffs) == 1
        # ...and deterministically: the same plan flips the same bit back.
        FaultPlan(seed=3).corrupt(path)
        assert path.read_bytes() == original


class TestFaultPlanProperties:
    """FaultPlan decisions are pure functions of (seed, kind, key, attempt)."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        kind=st.sampled_from(FAULT_KINDS),
        key=st.text(min_size=1, max_size=30),
        attempt=st.integers(min_value=0, max_value=3),
    )
    def test_decisions_are_deterministic_under_a_fixed_seed(
        self, seed, rate, kind, key, attempt
    ):
        a = FaultPlan({kind: rate}, seed=seed, faulted_attempts=4)
        b = FaultPlan({kind: rate}, seed=seed, faulted_attempts=4)
        assert a.should_inject(kind, key, attempt) == b.should_inject(
            kind, key, attempt
        )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        key=st.text(min_size=1, max_size=30),
    )
    def test_higher_rate_never_injects_less(self, seed, key):
        lo = FaultPlan({"crash": 0.3}, seed=seed)
        hi = FaultPlan({"crash": 0.8}, seed=seed)
        if lo.should_inject("crash", key, 0):
            assert hi.should_inject("crash", key, 0)


# ---------------------------------------------------------------------------
# chaos: the executor under injected faults
# ---------------------------------------------------------------------------


class TestChaosByteEquivalence:
    def test_inline_oserror_is_retried_and_byte_identical(self):
        baseline = clean_sweep_json()
        plan = FaultPlan({"oserror": 1.0}, seed=1)
        with collecting() as c, recording() as r, sweep_options(
            faults=plan, retry=FAST_RETRY
        ):
            chaos = sweep(PLATFORMS, ns=NS, periods=1).to_canonical_json()
        assert chaos == baseline
        assert r.value("atm_faults", kind="os-error") == 4
        assert r.value("atm_faults", kind="retries") == 4
        assert c.find("harness.fault"), "failures must emit harness.fault spans"

    def test_worker_crash_is_survived_and_byte_identical(self):
        """A killed pool worker breaks the whole pool; the executor
        rebuilds it once, resubmits, and the merged bytes don't move.  A
        resubmitted cell draws its directive under its own count of
        submissions, so the crash that broke the pool does not fire
        again and every cell still finishes on the pool."""
        baseline = clean_sweep_json()  # also warms the memo: no prefetches
        plan = FaultPlan({"crash": 0.5}, seed=11)
        crashing = [
            f"{p}@{n}"
            for p in ("reference", "cuda:gtx-880m")
            for n in NS
            if plan.should_inject("crash", f"{p}@{n}", 0)
        ]
        assert crashing == ["cuda:gtx-880m@192"], "seed must kill one worker"
        with recording() as r, sweep_options(faults=plan, retry=FAST_RETRY):
            chaos = sweep(PLATFORMS, ns=NS, periods=1, jobs=JOBS).to_canonical_json()
        assert chaos == baseline
        assert r.value("atm_faults", kind="injected") == 1
        assert r.value("atm_faults", kind="worker-crash") == 1
        assert r.value("atm_faults", kind="degraded-to-inline") is None
        assert r.value("atm_shards", source="pool") == 4

    def test_shard_timeout_is_survived_and_byte_identical(self):
        baseline = clean_sweep_json()
        plan = FaultPlan({"timeout": 0.5}, seed=5, hang_s=0.6)
        retry = RetryPolicy(max_attempts=3, backoff_s=0.001, timeout_s=0.2)
        with recording() as r, sweep_options(faults=plan, retry=retry):
            chaos = sweep(PLATFORMS, ns=NS, periods=1, jobs=JOBS).to_canonical_json()
        assert chaos == baseline
        assert r.value("atm_faults", kind="timeout") >= 1

    def test_repeatedly_dying_workers_degrade_to_inline(self):
        """faulted_attempts > rebuild budget: the pool can never finish a
        shard, so every shard must complete inline instead of aborting."""
        baseline = clean_sweep_json()
        plan = FaultPlan({"crash": 1.0}, seed=2, faulted_attempts=99)
        retry = RetryPolicy(max_attempts=2, backoff_s=0.001)
        with recording() as r, sweep_options(faults=plan, retry=retry):
            chaos = sweep(PLATFORMS, ns=NS, periods=1, jobs=JOBS).to_canonical_json()
        assert chaos == baseline
        assert r.value("atm_faults", kind="degraded-to-inline") >= 1

    def test_combined_chaos_with_cache_corruption(self, tmp_path):
        """The acceptance scenario: crash + timeout + corrupted cache
        entries in one run, still byte-identical, corruption quarantined."""
        baseline = clean_sweep_json()
        cache = ResultCache(tmp_path / "cache")
        plan = parse_fault_spec(
            "crash=0.4,oserror=0.3,corrupt-result=1,seed=13"
        )
        with sweep_options(faults=plan, retry=FAST_RETRY):
            cold = sweep(
                PLATFORMS, ns=NS, periods=1, jobs=JOBS, cache=cache
            ).to_canonical_json()
        assert cold == baseline
        # every stored entry was bit-flipped after the write...
        with recording() as r, sweep_options(faults=plan, retry=FAST_RETRY):
            warm = sweep(
                PLATFORMS, ns=NS, periods=1, jobs=JOBS, cache=cache
            ).to_canonical_json()
        assert warm == baseline
        # ...so the warm run detected, quarantined and recomputed them.
        assert cache.quarantined == 4
        assert r.value("atm_faults", kind="corrupt-entry") == 4
        assert len(list((tmp_path / "cache" / "quarantine").glob("*.json"))) >= 4


#: the trace prefetch as the engine runs it, before any monkeypatch.
_compute_trace_shard = parallel._compute_trace_shard


def _flaky_trace_shard(*args):
    """A trace prefetch whose first try, in whichever worker runs first,
    raises a transient ``OSError``: creating the marker file named in
    the environment with ``O_EXCL`` picks that one try."""
    marker = os.environ["ATM_REPRO_TEST_FLAKY_MARKER"]
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _compute_trace_shard(*args)
    raise OSError("transient prefetch fault")


class TestTracePrefetchAttempts:
    """The pool's trace prefetch runs through the attempt loop every
    cell runs through: one timeout, one set of fault kinds, one retry
    count.  Each test clears the trace memo after its serial baseline,
    so the pooled sweep computes its traces on the pool."""

    def test_hung_prefetch_is_timed_out_and_retried(self):
        baseline = clean_sweep_json()
        _TRACE_MEMO.clear()
        plan = FaultPlan({"timeout": 0.5}, seed=98, hang_s=2.5)
        assert plan.worker_fault("trace@96", 0) == "timeout"
        others = ["trace@192"] + [
            f"{p}@{n}" for p in ("reference", "cuda:gtx-880m") for n in NS
        ]
        assert not any(plan.worker_fault(sid, 0) for sid in others), (
            "the seed must hang the n=96 prefetch's first try alone"
        )
        retry = RetryPolicy(max_attempts=3, backoff_s=0.001, timeout_s=1.0)
        with collecting() as c, recording() as r, sweep_options(
            faults=plan, retry=retry
        ):
            chaos = sweep(PLATFORMS, ns=NS, periods=1, jobs=JOBS).to_canonical_json()
        assert chaos == baseline
        timeouts = [
            s.attrs for s in c.find("harness.fault") if s.attrs["kind"] == "timeout"
        ]
        assert {"stage": "trace", "n_aircraft": 96, "attempt": 0}.items() <= (
            timeouts[0].items()
        )
        assert r.value("atm_faults", kind="retries") >= 1
        assert r.value("atm_faults", kind="degraded-to-inline") is None
        assert r.value("atm_trace_requests", source="pool") == len(NS)

    def test_transient_prefetch_oserror_is_retried(self, tmp_path, monkeypatch):
        baseline = clean_sweep_json()
        _TRACE_MEMO.clear()
        monkeypatch.setenv("ATM_REPRO_TEST_FLAKY_MARKER", str(tmp_path / "once"))
        monkeypatch.setattr(parallel, "_compute_trace_shard", _flaky_trace_shard)
        with collecting() as c, recording() as r, sweep_options(retry=FAST_RETRY):
            chaos = sweep(PLATFORMS, ns=NS, periods=1, jobs=JOBS).to_canonical_json()
        assert chaos == baseline
        faults = [
            (s.attrs["kind"], s.attrs["stage"]) for s in c.find("harness.fault")
        ]
        assert faults == [("os-error", "trace")]
        assert r.value("atm_faults", kind="retries") == 1
        assert r.value("atm_trace_requests", source="pool") == len(NS)


class TestTraceStoreTraffic:
    """A stored trace costs the TraceStore one probe and one miss, and a
    trace the memo already holds still reaches a store that lacks it."""

    @pytest.mark.parametrize("jobs", [1, JOBS])
    def test_cold_sweep_misses_once_per_stored_trace(self, tmp_path, jobs):
        _TRACE_MEMO.clear()
        traces = TraceStore(tmp_path / "traces")
        with sweep_options(traces=traces):
            sweep(PLATFORMS, ns=NS, periods=1, jobs=jobs)
        stats = traces.stats()
        assert stats["misses"] == stats["stores"] == stats["entries"] == len(NS)

    def test_prefetch_the_pool_gives_up_on_misses_once(self, tmp_path):
        """A trace prefetch that ends in the parent computes there
        without probing the store again."""
        _TRACE_MEMO.clear()
        traces = TraceStore(tmp_path / "traces")
        plan = FaultPlan({"crash": 1.0}, seed=2, faulted_attempts=99)
        retry = RetryPolicy(max_attempts=2, backoff_s=0.001)
        with sweep_options(traces=traces, faults=plan, retry=retry):
            sweep(PLATFORMS, ns=NS, periods=1, jobs=2)
        stats = traces.stats()
        assert stats["misses"] == stats["stores"] == stats["entries"] == len(NS)

    def test_memo_hit_writes_a_store_that_lacks_the_trace(self, tmp_path):
        _TRACE_MEMO.clear()
        sweep(PLATFORMS, ns=NS, periods=1)  # the traces reach the memo only
        traces = TraceStore(tmp_path / "traces")
        with sweep_options(traces=traces):
            sweep(PLATFORMS, ns=NS, periods=1)
        stats = traces.stats()
        assert stats["entries"] == stats["stores"] == len(NS)
        assert stats["misses"] == 0


# ---------------------------------------------------------------------------
# store integrity
# ---------------------------------------------------------------------------


class TestStoreIntegrity:
    def test_trace_store_corruption_is_quarantined(self, tmp_path):
        from repro.core.trace import compute_trace

        store = TraceStore(tmp_path / "traces")
        trace = compute_trace(64, periods=1)
        store.put(trace.key(), trace)
        path = store._path(trace.key())
        FaultPlan(seed=9).corrupt(path)
        with recording() as r:
            assert store.get(trace.key()) is None
        assert store.quarantined == 1
        assert not path.exists()
        assert (store.root / "quarantine" / path.name).exists()
        assert r.value("atm_faults", kind="corrupt-entry") == 1

    def test_corrupt_trace_injection_end_to_end(self, tmp_path):
        """--inject-faults corrupt-trace: the trace tier self-heals and
        the sweep bytes never move."""
        from repro.harness.sweep import _TRACE_MEMO

        baseline = clean_sweep_json()
        traces = TraceStore(tmp_path / "traces")
        plan = FaultPlan({"corrupt-trace": 1.0}, seed=21)
        # clear the process-level memo so both runs actually hit the store
        _TRACE_MEMO.clear()
        with sweep_options(faults=plan, traces=traces):
            cold = sweep(PLATFORMS, ns=NS, periods=1).to_canonical_json()
        _TRACE_MEMO.clear()
        with recording() as r, sweep_options(faults=plan, traces=traces):
            warm = sweep(PLATFORMS, ns=NS, periods=1).to_canonical_json()
        assert cold == warm == baseline
        assert traces.quarantined == len(NS)
        assert r.value("atm_faults", kind="corrupt-entry") == len(NS)

    def test_io_errors_are_counted_not_quarantined(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        monkeypatch.setattr(
            type(cache),
            "_read_verified",
            lambda self, path: (_ for _ in ()).throw(PermissionError("denied")),
        )
        with recording() as r:
            assert cache.get(key) is None
        assert cache.io_errors == 1 and cache.quarantined == 0
        assert r.value("atm_faults", kind="io-error") == 1

    def test_stats_report_quarantine_and_io_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        stats = cache.stats()
        for field in ("quarantined", "quarantine_files", "io_errors"):
            assert field in stats


# ---------------------------------------------------------------------------
# the checkpoint journal
# ---------------------------------------------------------------------------


class TestSweepJournal:
    """The batch sweep's checkpoint journal: a RequestJournal of
    ``served`` lines, the slowest tier of each sweep's cell store."""

    def test_fresh_journal_discards_previous_run(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"stale": true}\n', encoding="utf-8")
        journal = RequestJournal(path)
        assert len(journal) == 0 and not path.exists()

    def test_resume_recomputes_only_unfinished_cells(self, tmp_path):
        """A sweep killed after the first fleet size resumes: the
        completed cells come from the journal (counted), only the rest
        are measured, and the bytes match a clean run."""
        baseline = clean_sweep_json()
        path = tmp_path / "journal.jsonl"
        first = RequestJournal(path)
        with sweep_options(journal=first):
            sweep(PLATFORMS, ns=NS[:1], periods=1)  # "crashed" after n=96
        assert first.recorded == len(PLATFORMS)

        resumed = RequestJournal(path, resume=True)
        with collecting() as c, recording() as r, sweep_options(journal=resumed):
            full = sweep(PLATFORMS, ns=NS, periods=1).to_canonical_json()
        assert full == baseline
        assert r.value("atm_shards", source="journal") == len(PLATFORMS)
        assert measured_shards(r) == len(PLATFORMS)
        journal_shards = [
            s for s in c.find("harness.shard") if s.attrs["source"] == "journal"
        ]
        assert len(journal_shards) == len(PLATFORMS)

    def test_resume_composes_with_pool_execution(self, tmp_path):
        baseline = clean_sweep_json()
        path = tmp_path / "journal.jsonl"
        first = RequestJournal(path)
        with sweep_options(journal=first):
            sweep(PLATFORMS, ns=NS[:1], periods=1)
        resumed = RequestJournal(path, resume=True)
        with recording() as r, sweep_options(journal=resumed):
            full = sweep(PLATFORMS, ns=NS, periods=1, jobs=JOBS).to_canonical_json()
        assert full == baseline
        assert r.value("atm_shards", source="journal") == len(PLATFORMS)

    def test_torn_tail_line_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        with sweep_options(journal=journal):
            sweep(["reference"], ns=NS, periods=1)
        # SIGKILL mid-append: a truncated, digest-less final line.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "deadbeef", "measurement": {"pl')
        with recording() as r:
            again = RequestJournal(path, resume=True)
        assert again.dropped_lines == 1
        assert len(again) == len(NS)
        assert r.value("atm_faults", kind="journal-torn-line") == 1

    def test_tampered_line_fails_its_digest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        with sweep_options(journal=journal):
            sweep(["reference"], ns=NS[:1], periods=1)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["measurement"]["n_aircraft"] = 4096
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        again = RequestJournal(path, resume=True)
        assert again.dropped_lines == 1 and len(again) == 0

    def test_journal_keys_are_cost_model_sensitive(self, tmp_path, monkeypatch):
        """A journal line from before a cost-model edit must not be
        resurrected after it — the fingerprint key stops matching."""
        import repro.backends.reference as ref_mod

        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        with sweep_options(journal=journal):
            sweep(["reference"], ns=NS[:1], periods=1)
        monkeypatch.setattr(ref_mod, "_SECONDS_PER_OP", 2e-9)
        resumed = RequestJournal(path, resume=True)
        with recording() as r, sweep_options(journal=resumed):
            sweep(["reference"], ns=NS[:1], periods=1)
        assert resumed.resumed_cells == 0, "stale checkpoint must not match"
        assert measured_shards(r) == 1


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


class TestCliFaultFlags:
    def test_injected_report_is_byte_identical_to_clean_run(self, tmp_path, capsys):
        from repro.harness.cli import main

        clean = tmp_path / "clean.json"
        chaos = tmp_path / "chaos.json"
        assert main(
            ["report", "--only", "abl-fused", "--out", str(clean)]
        ) == 0
        assert main(
            [
                "report", "--only", "abl-fused", "--out", str(chaos),
                "--jobs", str(JOBS),
                "--inject-faults", "oserror=0.5,seed=3",
            ]
        ) == 0
        assert clean.read_bytes() == chaos.read_bytes()
        capsys.readouterr()

    def test_resume_flag_round_trips(self, tmp_path, capsys):
        """With the cache entries gone, --resume serves every cell the
        first run checkpointed from the journal alone."""
        import re
        import shutil

        from repro.harness.cli import main

        cache_dir = tmp_path / "cache"
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(
            [
                "report", "--only", "abl-fused", "--out", str(out1),
                "--cache-dir", str(cache_dir),
            ]
        ) == 0
        assert (cache_dir / "journal.jsonl").exists()
        first = capsys.readouterr().err
        checkpointed = int(re.search(r"(\d+) checkpointed", first).group(1))
        assert checkpointed > 0
        shutil.rmtree(cache_dir / "v2")
        assert main(
            [
                "report", "--only", "abl-fused", "--out", str(out2),
                "--cache-dir", str(cache_dir), "--resume",
            ]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        err = capsys.readouterr().err
        assert f": {checkpointed} cells resumed, 0 checkpointed" in err

    def test_resume_requires_cache_dir(self, tmp_path, capsys):
        from repro.harness.cli import main

        assert main(["report", "--only", "abl-fused", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        from repro.harness.cli import main

        assert main(
            ["report", "--only", "abl-fused", "--inject-faults", "meteor=1"]
        ) == 2
        assert "inject-faults" in capsys.readouterr().err


class TestServiceFaultKinds:
    """The service-layer kinds (reset/stall/corrupt-journal) share the
    spec grammar and the deterministic draw with the worker kinds."""

    def test_service_kinds_are_registered(self):
        from repro.harness.faults import SERVICE_FAULT_KINDS, WORKER_FAULT_KINDS

        assert set(SERVICE_FAULT_KINDS) == {"reset", "stall", "corrupt-journal"}
        assert set(SERVICE_FAULT_KINDS) <= set(FAULT_KINDS)
        assert not set(SERVICE_FAULT_KINDS) & set(WORKER_FAULT_KINDS)

    def test_service_spec_round_trips(self):
        plan = parse_fault_spec("reset=0.5,stall=0.25,corrupt-journal=1,hang=3,seed=9")
        assert plan.rates == {
            "reset": 0.5,
            "stall": 0.25,
            "corrupt-journal": 1.0,
        }
        assert plan.hang_s == 3.0 and plan.seed == 9
        assert parse_fault_spec(plan.to_spec()) == plan

    def test_service_kinds_never_probe_as_worker_faults(self):
        plan = FaultPlan({"reset": 1.0, "stall": 1.0}, seed=0)
        assert plan.worker_fault("any@96", 0) is None


class TestJitteredBackoff:
    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.1)
        for attempt in range(4):
            base = policy.backoff_for(attempt)
            delay = policy.jittered_backoff_for(
                attempt, seed=7, key="req3", cap_s=None
            )
            again = policy.jittered_backoff_for(
                attempt, seed=7, key="req3", cap_s=None
            )
            assert delay == again, "jitter must be a pure function"
            assert base / 2 <= delay < base

    def test_cap_bounds_the_exponential_growth(self):
        policy = RetryPolicy(max_attempts=10, backoff_s=1.0)
        delay = policy.jittered_backoff_for(8, seed=0, key="k", cap_s=0.25)
        assert delay < 0.25  # capped before the jitter factor

    def test_different_keys_spread_the_storm(self):
        policy = RetryPolicy(backoff_s=1.0)
        delays = {
            policy.jittered_backoff_for(0, seed=0, key=f"req{i}", cap_s=None)
            for i in range(16)
        }
        assert len(delays) > 1, "jitter must decorrelate concurrent clients"
