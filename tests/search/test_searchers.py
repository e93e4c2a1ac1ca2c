"""Searcher determinism, memoization, fidelity and the GA acceptance run.

The hypothesis properties pin the reproducibility contract: a search
result is a pure function of its :class:`~repro.search.runner.SearchSpec`
— the same seed and spec produce byte-identical trajectories whether
candidate sweeps run inline, sharded over a process pool, or resumed
from the checkpoint journal.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import canonical_json
from repro.search.evaluate import REJECTED_FITNESS, CandidateEvaluator
from repro.search.runner import SearchSpec, run_search
from repro.search.searchers import SEARCHERS
from repro.search.space import Budget, space_for
from repro.service.journal import RequestJournal


def _spec(searcher: str, seed: int = 2018, **kw) -> SearchSpec:
    kw.setdefault("max_evaluations", 6)
    kw.setdefault("ns", (96,))
    kw.setdefault("periods", 2)
    kw.setdefault("compare_paper", False)
    return SearchSpec(
        space=kw.pop("space", space_for("simd")),
        searcher=searcher,
        seed=seed,
        **kw,
    )


class TestDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(
        searcher=st.sampled_from(sorted(SEARCHERS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_same_seed_same_bytes(self, searcher, seed):
        spec = _spec(searcher, seed=seed)
        assert canonical_json(run_search(spec)) == canonical_json(run_search(spec))

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_jobs_do_not_change_the_trajectory(self, seed):
        spec = _spec("genetic", seed=seed, ns=(96, 480))
        inline = run_search(spec, jobs=1)
        pooled = run_search(spec, jobs=2)
        assert canonical_json(inline) == canonical_json(pooled)

    def test_different_seeds_explore_differently(self):
        results = {
            canonical_json(run_search(_spec("random", seed=s))) for s in range(4)
        }
        assert len(results) > 1

    def test_resume_from_journal_is_byte_identical(self, tmp_path):
        spec = _spec("genetic", ns=(96, 480), max_evaluations=8)
        path = tmp_path / "journal.jsonl"
        first_journal = RequestJournal(path)
        baseline = run_search(spec, journal=first_journal)
        assert first_journal.recorded > 0  # cells actually checkpointed

        resumed_journal = RequestJournal(path, resume=True)
        resumed = run_search(spec, journal=resumed_journal)
        assert resumed_journal.stats()["resumed_cells"] > 0
        assert canonical_json(resumed) == canonical_json(baseline)


class TestEvaluator:
    def test_memoizes_repeat_requests(self):
        space = space_for("simd")
        ev = CandidateEvaluator(space, ns=(96,), periods=2)
        first = ev.evaluate(space.base_point())
        again = ev.evaluate(space.base_point())
        assert again is first
        assert len(ev.trajectory) == 1

    def test_rejected_candidates_never_sweep(self):
        space = space_for("simd", budget=Budget(area_mm2=1.0))
        ev = CandidateEvaluator(space, ns=(96,), periods=2)
        out = ev.evaluate(space.base_point())
        assert out.rejected == ("area",)
        assert out.fitness == REJECTED_FITNESS
        assert out.modelled_time_s is None and out.worst_margin_s is None

    def test_unknown_objective_rejected(self):
        with pytest.raises(KeyError, match="objective"):
            CandidateEvaluator(space_for("simd"), objective="accuracy")

    def test_pareto_front_is_mutually_non_dominated(self):
        spec = _spec("random", ns=(96,), max_evaluations=8, objective="time_area")
        result = run_search(spec)
        front = result["pareto"]
        assert front
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    a["modelled_time_s"] <= b["modelled_time_s"]
                    and a["area_mm2"] <= b["area_mm2"]
                    and (
                        a["modelled_time_s"] < b["modelled_time_s"]
                        or a["area_mm2"] < b["area_mm2"]
                    )
                )
                assert not dominates


class TestSearcherShapes:
    def test_halving_best_is_full_fidelity(self):
        spec = _spec("halving", ns=(96, 480, 960), max_evaluations=12)
        result = run_search(spec)
        assert result["best"] is not None
        assert tuple(result["best"]["ns"]) == (96, 480, 960)
        assert result["rounds"] >= 2  # actually climbed the rung ladder
        # rung evaluations at partial fidelity exist in the trajectory
        assert any(len(ev["ns"]) < 3 for ev in result["trajectory"])

    def test_curve_is_monotone_nonincreasing(self):
        for searcher in sorted(SEARCHERS):
            result = run_search(_spec(searcher, max_evaluations=8))
            curve = [
                f for f in result["best_fitness_curve"] if f != REJECTED_FITNESS
            ]
            assert curve == sorted(curve, reverse=True)

    def test_curve_is_finite_and_result_is_strict_json(self):
        # entries before the first full-fidelity evaluation carry the
        # finite REJECTED_FITNESS sentinel, never math.inf: Infinity is
        # not a JSON token and breaks strict parsers of --out/--json.
        for searcher in sorted(SEARCHERS):
            result = run_search(_spec(searcher, max_evaluations=8))
            assert all(math.isfinite(f) for f in result["best_fitness_curve"])
            text = canonical_json(result)
            json.loads(
                text,
                parse_constant=lambda token: pytest.fail(
                    f"non-strict JSON token {token!r} in search result"
                ),
            )

    def test_ga_seed_population_includes_base_point(self):
        spec = _spec("genetic")
        result = run_search(spec)
        first = result["trajectory"][0]
        assert first["point"]["params"] == {}

    def test_random_terminates_on_exhausted_grid(self):
        # a 2-point space cannot absorb a 10-evaluation budget; the
        # idle guard must end the loop instead of spinning.
        space = dataclasses.replace(
            space_for("simd"),
            parameters=(space_for("simd").parameters[0].__class__("n_pes", (96, 192)),),
        )
        result = run_search(_spec("random", space=space, max_evaluations=10))
        assert result["evaluated"] <= 2

    def test_genetic_terminates_on_exhausted_grid(self):
        # memo hits are free, so once a 2-point grid is exhausted
        # `spent` stops moving; the idle-generation guard must end the
        # loop instead of breeding memo-hit children forever.
        space = dataclasses.replace(
            space_for("simd"),
            parameters=(space_for("simd").parameters[0].__class__("n_pes", (96, 192)),),
        )
        result = run_search(_spec("genetic", space=space, max_evaluations=10))
        assert result["evaluated"] <= 2


class TestAcceptance:
    def test_ga_dominates_a_paper_device_on_time_and_area(self):
        """ISSUE 7 acceptance: a budgeted GA smoke search finds a config
        dominating at least one paper device on (modelled-time, area)."""
        space = space_for("cuda", budget=Budget(area_mm2=50.0, power_w=100.0))
        spec = SearchSpec(
            space=space,
            searcher="genetic",
            seed=2018,
            max_evaluations=12,
            ns=(96, 480),
        )
        result = run_search(spec)
        assert any(result["dominates_paper"].values()), result["dominates_paper"]
        # and the run is byte-reproducible from its seed
        assert canonical_json(run_search(spec)) == canonical_json(result)
