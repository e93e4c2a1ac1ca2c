"""Unit tests for the fingerprinted result cache (repro.harness.cache)."""

import json

import numpy as np
import pytest

from repro.backends.reference import ReferenceBackend
from repro.backends.registry import resolve_backend
from repro.core.collision import DetectionMode
from repro.harness.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.harness.sweep import measure_platform


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeys:
    def test_key_is_stable(self, cache):
        b = resolve_backend("cuda:gtx-880m")
        k1 = cache.key_for(b, n=96, seed=2018, periods=2, mode=DetectionMode.SIGNED)
        k2 = cache.key_for(b, n=96, seed=2018, periods=2, mode=DetectionMode.SIGNED)
        assert k1 == k2
        assert len(k1) == 64  # sha256 hex

    def test_key_separates_every_task_parameter(self, cache):
        b = resolve_backend("cuda:gtx-880m")
        base = dict(n=96, seed=2018, periods=2, mode=DetectionMode.SIGNED)
        keys = {cache.key_for(b, **base)}
        for change in (
            dict(base, n=192),
            dict(base, seed=1),
            dict(base, periods=3),
            dict(base, mode=DetectionMode.PAPER_ABS),
        ):
            keys.add(cache.key_for(b, **change))
        assert len(keys) == 5

    @pytest.mark.parametrize("pruning", ["auto", "on", "off"])
    def test_key_is_the_fingerprint_of_its_record(self, pruning):
        """Keys stay byte-identical: ``key_for`` hashes the record with
        the backend's ``describe()`` canonicalized, for every platform
        and both sides of the pruning threshold."""
        from repro import __version__
        from repro.backends.registry import available_backends
        from repro.core.canonical import canonicalize, fingerprint_of
        from repro.core.sweepline import PRUNE_MIN_N, resolve_pruning

        for name in available_backends():
            backend = resolve_backend(name)
            for n in (96, PRUNE_MIN_N - 1, PRUNE_MIN_N):
                record = {
                    "schema": CACHE_SCHEMA_VERSION,
                    "backend": {
                        "describe": canonicalize(backend.describe()),
                        "library_version": __version__,
                    },
                    "task": {
                        "n": n,
                        "seed": 2018,
                        "periods": 2,
                        "mode": "signed",
                        "pruning": "on" if resolve_pruning(pruning, n) else "off",
                    },
                }
                key = ResultCache.key_for(
                    backend, n=n, seed=2018, periods=2,
                    mode=DetectionMode.SIGNED, pruning=pruning,
                )
                assert key == fingerprint_of(record), (name, n)

    def test_key_separates_backend_configurations(self, cache):
        from repro.cuda.backend import CudaBackend

        params = dict(n=96, seed=2018, periods=2, mode=DetectionMode.SIGNED)
        k96 = cache.key_for(CudaBackend("gtx-880m", block_size=96), **params)
        k128 = cache.key_for(CudaBackend("gtx-880m", block_size=128), **params)
        assert k96 != k128


class TestRoundTrip:
    def test_put_get_is_exact(self, cache):
        m = measure_platform("cuda:titan-x-pascal", 96, periods=2, cache=False)
        key = cache.key_for(
            resolve_backend("cuda:titan-x-pascal"),
            n=96, seed=2018, periods=2, mode=DetectionMode.SIGNED,
        )
        cache.put(key, m)
        got = cache.get(key)
        # exact float equality end to end — the cached sweep must be
        # byte-identical to the fresh one, not merely approximately so.
        assert got.task1_seconds == m.task1_seconds
        assert got.task23.seconds == m.task23.seconds
        assert got.task23.breakdown.as_dict() == m.task23.breakdown.as_dict()
        assert got.task23.detail == m.task23.detail
        assert got.to_dict() == m.to_dict()

    def test_missing_key_is_a_counted_miss(self, cache):
        assert cache.get("0" * 64) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_corrupt_entry_is_a_quarantined_miss(self, cache):
        m = measure_platform("reference", 96, periods=1, cache=False)
        key = "ab" + "0" * 62
        cache.put(key, m)
        path = cache._path(key)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.misses == 1
        # Never silently discarded: the bad file moves to quarantine/.
        assert cache.quarantined == 1
        assert not path.exists()
        assert (cache.root / "quarantine" / path.name).exists()

    def test_digest_mismatch_is_detected_and_quarantined(self, cache):
        """A bit flip that keeps the JSON valid must still be caught."""
        m = measure_platform("reference", 96, periods=1, cache=False)
        key = "cd" + "0" * 62
        cache.put(key, m)
        path = cache._path(key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["measurement"]["n_aircraft"] = 97
        path.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert (cache.root / "quarantine" / path.name).exists()

    def test_stats_and_clear(self, cache):
        m = measure_platform("reference", 96, periods=1, cache=False)
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 62, m)
        s = cache.stats()
        assert s["entries"] == 3 and s["stores"] == 3 and s["bytes"] > 0
        assert f"v{CACHE_SCHEMA_VERSION}" in str(cache._path("00" + "0" * 62))
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0


class TestMeasurePlatformIntegration:
    def test_second_measurement_is_served_from_cache(self, cache):
        a = measure_platform("ap:staran", 96, periods=1, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
        b = measure_platform("ap:staran", 96, periods=1, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert a.to_dict() == b.to_dict()

    def test_cost_model_edit_invalidates_only_that_backend(self, cache, monkeypatch):
        before = measure_platform("reference", 96, periods=1, cache=cache)
        measure_platform("ap:staran", 96, periods=1, cache=cache)
        assert cache.stores == 2

        # Recalibrate one cost-model constant of the reference backend;
        # describe() reports it, so the fingerprint must move.
        import repro.backends.reference as ref_mod

        monkeypatch.setattr(ref_mod, "_SECONDS_PER_OP", 2e-9)
        after = measure_platform("reference", 96, periods=1, cache=cache)
        assert cache.stores == 3, "edited backend must re-measure"
        # The fresh measurement reflects the doubled per-op cost — it was
        # not served from the stale entry.
        assert after.task23.seconds == pytest.approx(2 * before.task23.seconds)
        # ...while the untouched backend still hits.
        hits_before = cache.hits
        measure_platform("ap:staran", 96, periods=1, cache=cache)
        assert cache.hits == hits_before + 1

    def test_stateful_instances_are_never_cached(self, cache):
        from repro.mimd.backend import MimdBackend

        inst = MimdBackend()
        measure_platform(inst, 96, periods=1, cache=cache)
        assert cache.stores == 0 and cache.hits == 0
        # ...but the registry-name form of the same platform is cacheable
        # (a fresh instance per cell makes it a pure function of the name).
        measure_platform("mimd:xeon-16", 96, periods=1, cache=cache)
        assert cache.stores == 1


class TestDescribeCanonicalization:
    """Regression: numpy scalars/tuples in describe() must flow through
    the one shared canonicalizer in both the fingerprint and report.py."""

    class _NumpyDescribeBackend(ReferenceBackend):
        name = "reference"

        def describe(self):
            info = super().describe()
            info.update(
                clock_ghz=np.float64(1.531),
                n_pes=np.int64(96),
                compute_capability=(np.int32(6), np.int32(1)),
                flags=np.array([1, 2, 3]),
            )
            return info

    def test_fingerprint_accepts_numpy_describe(self):
        fp = self._NumpyDescribeBackend().fingerprint()
        assert len(fp) == 64

    def test_numpy_and_plain_describe_fingerprint_identically(self):
        class _PlainDescribeBackend(ReferenceBackend):
            name = "reference"

            def describe(inner):
                info = ReferenceBackend.describe(inner)
                info.update(
                    clock_ghz=1.531,
                    n_pes=96,
                    compute_capability=[6, 1],
                    flags=[1, 2, 3],
                )
                return info

        assert (
            self._NumpyDescribeBackend().fingerprint()
            == _PlainDescribeBackend().fingerprint()
        )

    def test_cache_key_accepts_numpy_describe(self, cache):
        key = cache.key_for(
            self._NumpyDescribeBackend(),
            n=96, seed=2018, periods=1, mode=DetectionMode.SIGNED,
        )
        assert len(key) == 64

    def test_report_platform_descriptions_serialize(self, monkeypatch):
        """report.json embeds describe() output; a backend leaking numpy
        values must not break (or destabilize) the JSON document."""
        from repro.cuda.backend import CudaBackend
        from repro.harness.report import build_report

        original = CudaBackend.describe

        def numpy_describe(self):
            info = original(self)
            info["sm_count"] = np.int64(info["sm_count"])
            info["caps_tuple"] = (np.int32(1), np.int32(2))
            return info

        monkeypatch.setattr(CudaBackend, "describe", numpy_describe)
        report = build_report(only=[])
        text = json.dumps(report, sort_keys=True)
        assert '"caps_tuple": [1, 2]' in text
        for name in (
            "cuda:titan-x-pascal", "ap:staran", "mimd:xeon-16", "reference",
        ):
            assert name in report["platforms"]


class TestTraceStore:
    """The on-disk tier for functional traces mirrors ResultCache."""

    @pytest.fixture
    def store(self, tmp_path):
        from repro.harness.cache import TraceStore

        return TraceStore(tmp_path / "traces")

    def test_put_get_round_trip_is_exact(self, store):
        from repro.core.trace import compute_trace

        trace = compute_trace(96, periods=2)
        store.put(trace.key(), trace)
        got = store.get(trace.key())
        assert got.to_bytes() == trace.to_bytes()
        assert (store.hits, store.misses, store.stores) == (1, 0, 1)

    def test_missing_and_corrupt_entries_are_counted_misses(self, store):
        from repro.core.trace import compute_trace

        assert store.get("0" * 64) is None
        trace = compute_trace(64, periods=1)
        store.put(trace.key(), trace)
        store._path(trace.key()).write_text("{not json", encoding="utf-8")
        assert store.get(trace.key()) is None
        assert store.misses == 2
        # The missing key is a plain miss; the corrupt one is quarantined.
        assert store.quarantined == 1
        assert (store.root / "quarantine").exists()

    def test_store_version_lives_in_the_path(self, store):
        from repro.harness.cache import TRACE_STORE_VERSION

        assert f"v{TRACE_STORE_VERSION}" in str(store._path("ab" + "0" * 62))

    def test_entry_is_the_trace_buffer(self, store):
        from repro.core.trace import TRACE_MAGIC, compute_trace

        trace = compute_trace(96, periods=2)
        store.put(trace.key(), trace)
        path = store._path(trace.key())
        assert path.suffix == ".trace"
        assert path.read_bytes() == trace.to_bytes()
        assert path.read_bytes().startswith(TRACE_MAGIC)

    def test_entry_under_another_key_is_quarantined(self, store):
        from repro.core.trace import compute_trace

        trace, other = compute_trace(64, periods=1), compute_trace(96, periods=1)
        store.put(trace.key(), trace)
        moved = store._path(other.key())
        moved.parent.mkdir(parents=True, exist_ok=True)
        store._path(trace.key()).rename(moved)
        assert store.get(other.key()) is None
        assert (store.misses, store.quarantined) == (1, 1)

    def test_stats_and_clear(self, store):
        from repro.core.trace import compute_trace

        for n in (64, 96):
            trace = compute_trace(n, periods=1)
            store.put(trace.key(), trace)
        s = store.stats()
        assert s["entries"] == 2 and s["stores"] == 2 and s["bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == 0


class TestClear:
    """``atm-repro cache clear`` deletes the stores' entries and nothing
    else under the cache dir: not the quarantine, not the journals."""

    def test_clear_keeps_quarantine_and_journals(self, tmp_path, capsys):
        from repro.core.trace import compute_trace
        from repro.harness.cache import TraceStore
        from repro.harness.cli import main

        root = tmp_path / "cache"
        cache, traces = ResultCache(root), TraceStore(root / "traces")
        m = measure_platform("ap:staran", 96, periods=1, cache=False)
        cache.put("ab" + "0" * 62, m)
        trace = compute_trace(96, periods=1)
        traces.put(trace.key(), trace)
        stale = root / "traces" / "v2" / "ab" / ("ab" + "1" * 62 + ".json")
        stale.parent.mkdir(parents=True)
        stale.write_text("{}", encoding="utf-8")
        kept = [
            root / "quarantine" / ("cd" + "0" * 62 + ".json"),
            root / "journal.jsonl",
            root / "service-journal.jsonl",
        ]
        for path in kept:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("kept\n", encoding="utf-8")
        assert traces.stats()["entries"] == 2  # the stale v2 entry counts
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "removed 1 cached cells and 2 stored traces" in capsys.readouterr().out
        for path in kept:
            assert path.read_text(encoding="utf-8") == "kept\n"
        assert cache.stats()["entries"] == traces.stats()["entries"] == 0
        assert cache.stats()["quarantine_files"] == 1
