"""Unit tests for the repro.obs collector: spans, events, no-op mode."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import NULL_SPAN, Collector, collecting


class TestSpans:
    def test_span_records_wall_duration(self):
        with collecting() as c:
            with obs.span("work"):
                pass
        (rec,) = c.spans
        assert rec.name == "work"
        assert rec.wall_dur_s >= 0.0
        assert rec.wall_start_s >= 0.0

    def test_nesting_sets_parent_ids(self):
        with collecting() as c:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        inner = c.find("inner")
        (outer,) = c.find("outer")
        assert len(inner) == 2
        assert all(s.parent_id == outer.span_id for s in inner)
        assert outer.parent_id is None
        assert [s.span_id for s in c.children_of(outer.span_id)] == [
            s.span_id for s in inner
        ]
        assert c.roots() == [outer]

    def test_add_modelled_accumulates(self):
        with collecting() as c:
            with obs.span("t") as sp:
                sp.add_modelled(1.0)
                sp.add_modelled(0.5)
        assert c.find("t")[0].modelled_s == pytest.approx(1.5)
        assert c.total_modelled() == pytest.approx(1.5)

    def test_attrs_via_kwargs_and_set(self):
        with collecting() as c:
            with obs.span("t", "cat", device="x") as sp:
                sp.set(bound="compute")
        rec = c.find("t")[0]
        assert rec.cat == "cat"
        assert rec.attrs == {"device": "x", "bound": "compute"}

    def test_span_survives_exception(self):
        with collecting() as c:
            with pytest.raises(RuntimeError):
                with obs.span("boom"):
                    raise RuntimeError("x")
        assert c.find("boom")  # recorded despite the exception
        assert c._stack == []  # and the stack is clean

    def test_span_names_first_seen_order(self):
        with collecting() as c:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
            with obs.span("a"):
                pass
        assert c.span_names() == ["a", "b"]


class TestCountersAndEvents:
    def test_events_record_position_in_tree(self):
        with collecting() as c:
            with obs.span("outer"):
                obs.event("marker", "cat", note="hi")
        (e,) = c.events
        assert e["name"] == "marker"
        assert e["parent"] == c.find("outer")[0].span_id
        assert e["attrs"] == {"note": "hi"}

    def test_clear_drops_everything(self):
        with collecting() as c:
            with obs.span("t") as sp:
                sp.add_modelled(1)
            obs.event("e")
            c.clear()
            assert (c.spans, c.events) == ([], [])


class TestNoOpMode:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not obs.is_active()
        assert obs.span("anything") is NULL_SPAN
        assert obs.span("other", "cat", k=1) is NULL_SPAN

    def test_null_span_supports_full_protocol(self):
        with obs.span("x") as sp:
            assert sp.set(a=1) is sp
            assert sp.add_modelled(2.0) is sp

    def test_disabled_event_is_a_noop(self):
        obs.event("e")  # must not raise, must not record anywhere
        assert obs.get_collector() is None


class TestActivation:
    def test_collecting_restores_previous_collector(self):
        outer = Collector()
        with collecting(outer):
            assert obs.get_collector() is outer
            with collecting() as inner:
                assert obs.get_collector() is inner
                assert inner is not outer
            assert obs.get_collector() is outer
        assert obs.get_collector() is None

    def test_collecting_restores_on_exception(self):
        with pytest.raises(ValueError):
            with collecting():
                raise ValueError("x")
        assert obs.get_collector() is None

    def test_activate_deactivate(self):
        c = obs.activate()
        try:
            assert obs.is_active()
            assert obs.get_collector() is c
        finally:
            assert obs.deactivate() is c
        assert not obs.is_active()

    def test_total_wall_and_category_filter(self):
        with collecting() as c:
            with obs.span("a", "x") as sp:
                sp.add_modelled(1.0)
            with obs.span("b", "y") as sp:
                sp.add_modelled(2.0)
        assert c.total_modelled("x") == pytest.approx(1.0)
        assert c.total_modelled() == pytest.approx(3.0)
        assert c.total_wall() >= c.total_wall("x") >= 0.0


class TestAdoptAndMerge:
    def _worker_trace(self):
        """A shard-local collector the way a pool worker produces one."""
        worker = Collector()
        with worker.span("task1", cat="task", platform="ap:staran") as t:
            t.add_modelled(0.5)
            with worker.span("correlate", cat="kernel") as k:
                k.add_modelled(0.25)
        worker.event("deadline.miss", cat="slo", platform="ap:staran")
        return worker

    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = self._worker_trace()
        parent = Collector()
        with parent.span("harness.shard", cat="harness") as shard:
            shard_id = shard.span_id
        id_map = parent.adopt(list(worker.spans), worker.events, parent_id=shard_id)
        adopted = {s.span_id: s for s in parent.spans if s.name != "harness.shard"}
        assert set(id_map.values()) == set(adopted)
        task = next(s for s in adopted.values() if s.name == "task1")
        kernel = next(s for s in adopted.values() if s.name == "correlate")
        assert task.parent_id == shard_id
        assert kernel.parent_id == task.span_id
        assert parent.events[-1]["name"] == "deadline.miss"

    def test_adopt_remap_survives_children_before_parents(self):
        worker = self._worker_trace()
        # Spans are recorded at close time, so children precede parents
        # in the list already — adopt must remap in two passes.
        spans = sorted(worker.spans, key=lambda s: s.span_id, reverse=True)
        parent = Collector()
        parent.adopt(spans)
        kernel = next(s for s in parent.spans if s.name == "correlate")
        task = next(s for s in parent.spans if s.name == "task1")
        assert kernel.parent_id == task.span_id

    def test_adopt_shifts_wall_times(self):
        worker = self._worker_trace()
        parent = Collector()
        parent.adopt(list(worker.spans), worker.events, wall_offset_s=100.0)
        assert all(s.wall_start_s >= 100.0 for s in parent.spans)
        assert parent.events[-1]["wall_start_s"] >= 100.0

    def test_span_record_event_round_trip(self):
        worker = self._worker_trace()
        restored = [obs.SpanRecord.from_event(s.to_event()) for s in worker.spans]
        assert restored == worker.spans
