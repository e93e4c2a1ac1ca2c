"""Span-tree rendering and modelled-coverage attribution."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import collecting, modelled_coverage, render_counters, render_span_tree
from repro.obs.metrics import MetricsRegistry


def _task_with_children(child_fractions):
    with collecting() as c:
        with obs.span("task1", "task") as t:
            for i, frac in enumerate(child_fractions):
                with obs.span(f"part{i}", "x") as sp:
                    sp.add_modelled(frac)
            t.add_modelled(1.0)
    return c


class TestModelledCoverage:
    def test_fully_attributed_task_scores_one(self):
        assert modelled_coverage(_task_with_children([0.6, 0.4])) == pytest.approx(1.0)

    def test_unattributed_half_scores_half(self):
        assert modelled_coverage(_task_with_children([0.5])) == pytest.approx(0.5)

    def test_overattribution_is_capped_at_parent(self):
        # a child claiming more than the parent cannot push coverage past 1
        assert modelled_coverage(_task_with_children([1.7])) == pytest.approx(1.0)

    def test_no_task_spans_means_nothing_to_attribute(self):
        with collecting() as c:
            with obs.span("helper") as sp:
                sp.add_modelled(1.0)
        assert modelled_coverage(c) == 1.0

    def test_averages_across_tasks_weighted_by_modelled(self):
        with collecting() as c:
            with obs.span("task1", "task") as t:  # fully covered, weight 3
                with obs.span("a") as sp:
                    sp.add_modelled(3.0)
                t.add_modelled(3.0)
            with obs.span("task23", "task") as t:  # uncovered, weight 1
                t.add_modelled(1.0)
        assert modelled_coverage(c) == pytest.approx(0.75)


class TestRenderSpanTree:
    def test_merges_same_name_siblings_with_call_count(self):
        with collecting() as c:
            for _ in range(3):
                with obs.span("task1", "task") as t:
                    with obs.span("child") as sp:
                        sp.add_modelled(0.5)
                    t.add_modelled(0.5)
        tree = render_span_tree(c)
        task_line = next(l for l in tree.splitlines() if l.startswith("task1"))
        assert task_line.split()[1] == "3"
        child_line = next(l for l in tree.splitlines() if "child" in l)
        assert child_line.startswith("  ")  # indented under the task
        assert child_line.split()[1] == "3"

    def test_truncates_at_max_spans(self):
        with collecting() as c:
            for i in range(30):
                with obs.span(f"s{i}"):
                    pass
        tree = render_span_tree(c, max_spans=5)
        assert "truncated at 5" in tree

    def test_empty_collector_renders_header_only(self):
        with collecting() as c:
            pass
        tree = render_span_tree(c)
        assert "span" in tree.splitlines()[0]


class TestRenderCounters:
    def test_sorted_and_integers_shown_as_integers(self):
        r = MetricsRegistry()
        r.inc("atm_trace_requests", 4, source="memo")
        r.inc("atm_shards", 2, source="pool")
        r.set("atm_trace_peak_bytes", 2.5, path="streamed")
        r.set("atm_service_drain_seconds", 0.25)
        r.observe("atm_service_batch_cells", 3.0)  # histograms are not listed
        out = render_counters(r.snapshot()).splitlines()
        assert [line.split()[0] for line in out] == [
            "atm_service_drain_seconds",
            'atm_shards{source="pool"}',
            'atm_trace_peak_bytes{path="streamed"}',
            'atm_trace_requests{source="memo"}',
        ]
        assert [line.split()[1] for line in out] == ["0.25", "2", "2.5", "4"]

    def test_no_counters(self):
        r = MetricsRegistry()
        assert render_counters(r.snapshot()) == "(no counters)"
        r.observe("atm_service_batch_cells", 3.0)
        assert render_counters(r.snapshot()) == "(no counters)"


class TestTruncationAccounting:
    def _wide_tree(self):
        """Distinct-name siblings, each with a two-level subtree."""
        with collecting() as c:
            for i in range(6):
                with obs.span(f"top{i}"):
                    with obs.span("mid"):
                        with obs.span("leaf"):
                            pass
        return c

    def test_omitted_counts_dropped_sibling_subtrees(self):
        # 6 top-level groups x 3 lines each = 18 lines total.  With
        # max_spans=4 the renderer emits top0..top2 (3) + top0's "mid"
        # (1), then drops: top0's leaf subtree, top1/top2's subtrees,
        # and the three whole top3..top5 subtrees.
        tree = render_span_tree(self._wide_tree(), max_spans=4)
        assert "truncated at 4 lines; 14 span groups omitted" in tree

    def test_emitted_plus_omitted_is_total(self):
        c = self._wide_tree()
        full = render_span_tree(c)
        total_groups = len(full.splitlines()) - 2  # header + rule
        for max_spans in (1, 2, 4, 7, 17):
            tree = render_span_tree(c, max_spans=max_spans)
            body = [
                l
                for l in tree.splitlines()[2:]
                if not l.startswith("... (truncated")
            ]
            omitted = int(tree.rsplit(";", 1)[1].split()[0])
            assert len(body) + omitted == total_groups

    def test_no_footer_when_everything_fits(self):
        tree = render_span_tree(self._wide_tree(), max_spans=400)
        assert "truncated" not in tree


class TestCoverageEdgeCases:
    def test_zero_modelled_parents_score_one(self):
        # Task spans that never charged modelled time have nothing to
        # attribute — coverage must be 1.0, not a division error.
        with collecting() as c:
            with obs.span("task1", "task"):
                with obs.span("child") as sp:
                    sp.add_modelled(0.5)
        assert modelled_coverage(c) == 1.0

    def test_grandchildren_do_not_double_count(self):
        # Only *direct* children attribute to the task; the grandchild's
        # seconds are already inside its parent's.
        with collecting() as c:
            with obs.span("task1", "task") as t:
                t.add_modelled(1.0)
                with obs.span("child") as sp:
                    sp.add_modelled(0.5)
                    with obs.span("grandchild") as g:
                        g.add_modelled(0.5)
        assert modelled_coverage(c) == pytest.approx(0.5)

    def test_registry_wide_coverage_smoke(self):
        # Every registered backend's cost model must stay threaded
        # through the tracer: >= 0.95 of task modelled seconds
        # attributed to sub-spans, for the whole registry.
        from repro.backends.registry import available_backends, resolve_backend
        from repro.core.radar import generate_radar_frame
        from repro.core.setup import setup_flight

        fleet = setup_flight(96, 2018)
        frame = generate_radar_frame(fleet, 2018, 0)
        for name in available_backends():
            backend = resolve_backend(name)
            with collecting() as c:
                backend.track_and_correlate(fleet, frame)
                backend.detect_and_resolve(fleet)
            cov = modelled_coverage(c)
            assert cov >= 0.95, f"{name}: coverage {cov:.3f}"
