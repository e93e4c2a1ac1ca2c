"""Unit tests for the labeled metrics registry and OpenMetrics exposition."""

from __future__ import annotations

import math

import pytest

from repro.core.canonical import canonical_json
from repro.obs.metrics import (
    DEADLINE_MARGIN_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricDecl,
    MetricsRegistry,
    canonical_labels,
    get_registry,
    linear_buckets,
    log_buckets,
    metric_inc,
    metric_observe,
    metric_set,
    metrics_active,
    parse_openmetrics,
    recording,
    to_openmetrics,
)


class TestBuckets:
    def test_linear_buckets_span_inclusive(self):
        bounds = linear_buckets(-0.5, 0.5, 20)
        assert bounds[0] == -0.5 and bounds[-1] == 0.5
        assert len(bounds) == 21
        assert list(bounds) == sorted(bounds)

    def test_log_buckets_are_125_ladder(self):
        bounds = log_buckets(1e-3, 1.0)
        assert bounds[:3] == (1e-3, 2e-3, 5e-3)
        assert bounds[-1] == 1.0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            linear_buckets(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_buckets_and_stats(self):
        h = Histogram((0.0, 1.0, 2.0))
        for v in (-0.5, 0.5, 1.5, 5.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(6.5)
        assert h.min == -0.5 and h.max == 5.0

    def test_histogram_merge_requires_equal_bounds(self):
        a, b = Histogram((1.0, 2.0)), Histogram((1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_histogram_merge_is_lossless(self):
        a, b = Histogram((0.0, 1.0)), Histogram((0.0, 1.0))
        a.observe(-1.0)
        b.observe(0.5)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 3
        assert a.bucket_counts == [1, 1, 1]
        assert a.min == -1.0 and a.max == 3.0

    def test_quantiles_interpolate_within_recorded_range(self):
        h = Histogram(tuple(float(b) for b in range(11)))
        for v in range(1, 11):
            h.observe(v - 0.5)
        assert h.quantile(0.0) == pytest.approx(h.min)
        assert h.quantile(1.0) == pytest.approx(h.max)
        assert 4.0 <= h.quantile(0.5) <= 6.0
        assert math.isnan(Histogram((1.0,)).quantile(0.5))
        assert Histogram((1.0,)).to_dict()["p95"] is None

    def test_histogram_round_trips_through_dict(self):
        h = Histogram(DEADLINE_MARGIN_BUCKETS)
        h.observe(0.42)
        h.observe(-0.1)
        other = Histogram(DEADLINE_MARGIN_BUCKETS)
        other.load(h.to_dict())
        assert other.to_dict() == h.to_dict()


class TestLabels:
    def test_order_and_type_insensitive(self):
        assert canonical_labels({"n": 960, "p": "ap"}) == canonical_labels(
            {"p": "ap", "n": "960"}
        )

    def test_distinct_values_distinct_series(self):
        assert canonical_labels({"n": 960}) != canonical_labels({"n": 1920})


class TestRegistry:
    def test_undeclared_metric_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().inc("atm_typo_total")

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        with pytest.raises(TypeError):
            r.set("atm_shards", 1.0)

    def test_declaration_validation(self):
        with pytest.raises(ValueError):
            MetricDecl(name="x", kind="timer", help="")
        with pytest.raises(ValueError):
            MetricDecl(name="x_seconds", kind="histogram", help="")
        with pytest.raises(ValueError):
            MetricDecl(name="x", kind="gauge", help="", unit="seconds")

    def test_inc_value_and_series(self):
        r = MetricsRegistry()
        r.inc("atm_shards", source="pool")
        r.inc("atm_shards", 2.0, source="pool")
        r.inc("atm_shards", source="inline")
        assert r.value("atm_shards", source="pool") == 3.0
        assert r.value("atm_shards", source="inline") == 1.0
        assert r.value("atm_shards", source="cache") is None
        assert len(r.series("atm_shards")) == 2

    def test_snapshot_sorted_and_canonical(self):
        def build(order):
            r = MetricsRegistry()
            for source in order:
                r.inc("atm_shards", source=source)
            r.observe("atm_deadline_margin_seconds", 0.25, platform="ap", n_aircraft=960, period="tracking", source="sweep")
            return r.snapshot()

        a = build(["pool", "inline"])
        b = build(["inline", "pool"])
        assert canonical_json(a) == canonical_json(b)

    def test_deterministic_projection(self):
        r = MetricsRegistry()
        r.inc("atm_shards", source="pool")
        r.inc("atm_deadline_misses", 0.0, platform="ap", n_aircraft=960, source="sweep")
        snap = r.snapshot(deterministic_only=True)
        assert list(snap["families"]) == ["atm_deadline_misses"]
        assert snap["deterministic_only"] is True

    def test_merge_equals_combined_run(self):
        def record(r, values):
            for v in values:
                r.observe("atm_deadline_margin_seconds", v, platform="ap", n_aircraft=960, period="tracking", source="sweep")
                r.inc("atm_deadline_periods", platform="ap", n_aircraft=960, source="sweep")

        whole = MetricsRegistry()
        record(whole, [0.1, 0.2, -0.3, 0.4])
        left, right = MetricsRegistry(), MetricsRegistry()
        record(left, [0.1, 0.2])
        record(right, [-0.3, 0.4])
        left.merge(right)
        assert canonical_json(left.snapshot()) == canonical_json(whole.snapshot())

    def test_load_snapshot_round_trip(self):
        r = MetricsRegistry()
        r.inc("atm_faults", 3.0, kind="timeout")
        r.observe("atm_deadline_margin_seconds", -0.05, platform="mimd", n_aircraft=1920, period="collision", source="sweep")
        restored = MetricsRegistry().load_snapshot(r.snapshot())
        assert canonical_json(restored.snapshot()) == canonical_json(r.snapshot())


class TestNoOpMode:
    def test_helpers_are_noops_without_registry(self):
        assert not metrics_active()
        assert get_registry() is None
        metric_inc("atm_shards", source="pool")
        metric_set("atm_bench_stage_seconds", 1.0, stage="trace_cold")
        metric_observe("atm_deadline_margin_seconds", 0.1, platform="ap", n_aircraft=1, period="tracking", source="sweep")

    def test_recording_scopes_the_registry(self):
        with recording() as r:
            assert metrics_active() and get_registry() is r
            metric_inc("atm_shards", source="inline")
        assert not metrics_active()
        assert r.value("atm_shards", source="inline") == 1.0

    def test_recording_restores_previous(self):
        with recording() as outer:
            with recording() as inner:
                metric_inc("atm_shards", source="pool")
            assert get_registry() is outer
        assert inner.value("atm_shards", source="pool") == 1.0
        assert outer.value("atm_shards", source="pool") is None


class TestOpenMetrics:
    def _sample_registry(self):
        r = MetricsRegistry()
        r.inc("atm_shards", 4.0, source="pool")
        r.set("atm_bench_stage_seconds", 1.25, stage="trace_cold")
        for v in (-0.1, 0.2, 0.45):
            r.observe("atm_deadline_margin_seconds", v, platform="mimd:xeon-16", n_aircraft=1920, period="tracking", source="sweep")
        return r

    def test_exposition_shape(self):
        text = to_openmetrics(self._sample_registry().snapshot())
        assert text.endswith("# EOF\n")
        assert "# TYPE atm_shards counter" in text
        assert 'atm_shards_total{source="pool"} 4' in text
        assert "# UNIT atm_deadline_margin_seconds seconds" in text
        assert 'le="+Inf"' in text

    def test_round_trip_parses(self):
        snap = self._sample_registry().snapshot()
        families = parse_openmetrics(to_openmetrics(snap))
        assert families["atm_shards"]["type"] == "counter"
        hist = families["atm_deadline_margin_seconds"]
        counts = [
            v
            for sample_name, labels, v in hist["samples"]
            if labels.get("le") == "+Inf"
        ]
        assert counts == [3.0]

    def test_parse_rejects_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE a counter\na_total 1\n")

    def test_parse_rejects_undeclared_sample(self):
        with pytest.raises(ValueError, match="no declared"):
            parse_openmetrics("# TYPE a counter\nb_total 1\n# EOF\n")

    def test_parse_rejects_wrong_suffix(self):
        with pytest.raises(ValueError, match="no declared"):
            parse_openmetrics("# TYPE a counter\na 1\n# EOF\n")

    def test_parse_rejects_non_cumulative_histogram(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\n'
            'h_bucket{le="+Inf"} 1\n'
            "h_count 1\n"
            "h_sum 0\n"
            "# EOF\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_openmetrics(text)

    def test_parse_rejects_missing_inf_bucket(self):
        text = "# TYPE h histogram\n" 'h_bucket{le="1"} 1\n' "# EOF\n"
        with pytest.raises(ValueError, match="Inf"):
            parse_openmetrics(text)

    def test_parse_rejects_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 2\n'
            "h_count 3\n"
            "# EOF\n"
        )
        with pytest.raises(ValueError, match="_count"):
            parse_openmetrics(text)
