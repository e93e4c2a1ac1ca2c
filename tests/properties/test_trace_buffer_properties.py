"""Property tests for a trace's array buffer and the store that keeps it.

A :class:`~repro.core.trace.FunctionalTrace` crosses disk and process
boundaries as one checksummed buffer (``to_bytes``/``from_bytes``).
Decoding must be exact — a decoded trace re-encodes to the same bytes
and every backend family charges the same measurement from it — and
:class:`~repro.harness.cache.TraceStore` must read any damaged entry as
a counted, quarantined miss.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collision import DetectionMode
from repro.core.trace import FunctionalTrace, compute_trace
from repro.harness.cache import TraceStore
from repro.harness.sweep import measure_platform
from repro.obs.metrics import recording

#: one platform of each backend family, plus the reference model.
FAMILY_PLATFORMS = (
    "cuda:titan-x-pascal",
    "ap:staran",
    "simd:clearspeed-csx600",
    "mimd:xeon-16",
    "vector:avx512-16c",
    "reference",
)

_cells = st.fixed_dictionaries(
    {
        "n": st.sampled_from([32, 96, 130, 200]),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "periods": st.integers(min_value=1, max_value=3),
        "mode": st.sampled_from(list(DetectionMode)),
        "dropout": st.sampled_from([0.0, 0.1, 0.3]),
        "clutter": st.sampled_from([0, 4, 17]),
        "pruning": st.sampled_from(["auto", "on", "off"]),
    }
)


def _replayed(platform: str, trace: FunctionalTrace) -> str:
    measurement = measure_platform(
        platform,
        trace.n_aircraft,
        seed=trace.seed,
        periods=trace.periods,
        mode=trace.mode,
        trace=trace,
        cache=False,
    )
    return json.dumps(measurement.to_dict(), sort_keys=True)


class TestRoundTrip:
    @settings(max_examples=12, deadline=None)
    @given(_cells)
    def test_decoded_trace_re_encodes_and_replays_identically(self, cell):
        trace = compute_trace(**cell)
        raw = trace.to_bytes()
        back = FunctionalTrace.from_bytes(raw)
        assert back.to_bytes() == raw
        assert back.key() == trace.key()
        for platform in FAMILY_PLATFORMS:
            assert _replayed(platform, back) == _replayed(platform, trace), platform


@pytest.fixture(scope="module")
def trace():
    return compute_trace(96, periods=2)


def _store_with_entry(tmp_path_factory, trace):
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    store.put(trace.key(), trace)
    return store, store._path(trace.key())


def _assert_quarantined_miss(store, trace, path):
    with recording() as r:
        assert store.get(trace.key()) is None
    assert (store.misses, store.quarantined, store.hits) == (1, 1, 0)
    assert not path.exists()
    assert (store.root / "quarantine" / path.name).exists()
    assert r.value("atm_faults", kind="corrupt-entry") == 1


class TestStoredEntryIntegrity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_flipped_bit_is_a_quarantined_miss(
        self, tmp_path_factory, trace, data
    ):
        store, path = _store_with_entry(tmp_path_factory, trace)
        raw = bytearray(path.read_bytes())
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw[position] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(bytes(raw))
        _assert_quarantined_miss(store, trace, path)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_truncated_entry_is_a_quarantined_miss(
        self, tmp_path_factory, trace, data
    ):
        store, path = _store_with_entry(tmp_path_factory, trace)
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        _assert_quarantined_miss(store, trace, path)

    def test_old_json_trace_is_never_read(self, tmp_path, trace):
        """A layout-v2 JSON trace left on disk is neither read nor
        quarantined: the v3 store looks only in its own subtree."""
        store = TraceStore(tmp_path / "traces")
        key = trace.key()
        old = store.root / "v2" / key[:2] / f"{key}.json"
        old.parent.mkdir(parents=True)
        old.write_text('{"key": "%s", "schema": 2}' % key, encoding="utf-8")
        assert store.get(key) is None
        assert (store.misses, store.quarantined) == (1, 0)
        assert old.exists()
        store.put(key, trace)
        assert store.get(key).to_bytes() == trace.to_bytes()
