"""Search runs: spec in, canonical (byte-reproducible) result out.

A :class:`SearchSpec` is the complete, serializable description of one
search — family, base, grids, budget, searcher, objective, seeds,
fleet-size axis — and :func:`run_search` is a pure function of it plus
the execution environment (jobs / cache / journal), returning a result
dict whose :func:`~repro.core.canonical.canonical_json` bytes carry no
wall-clock state.  The CI ``search`` job asserts exactly that: two runs
of the same spec produce identical trajectory bytes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import __version__
from ..core.canonical import canonical_json
from ..core.collision import DetectionMode
from ..harness.parallel import sweep_options
from .evaluate import OBJECTIVES, CandidateEvaluator, Evaluation, _dominates
from .searchers import SEARCHERS, SearchOutcome
from .space import Budget, DesignSpace, space_for

__all__ = ["SearchSpec", "run_search", "render_search", "load_search_spec"]


@dataclass(frozen=True)
class SearchSpec:
    """Everything that determines a search run's results."""

    space: DesignSpace
    searcher: str = "genetic"
    objective: str = "modelled_time"
    #: seed of the searcher's private RNG.
    seed: int = 2018
    #: budget of *new* candidate evaluations (memo hits are free).
    max_evaluations: int = 24
    #: fleet-size axis each candidate is swept over.
    ns: Tuple[int, ...] = (96, 480, 960)
    #: tracking periods per sweep cell.
    periods: int = 3
    #: seed of the simulated fleet (the paper's 2018).
    sweep_seed: int = 2018
    mode: DetectionMode = DetectionMode.SIGNED
    #: also evaluate the family's named (paper) configs for comparison.
    compare_paper: bool = True

    def __post_init__(self) -> None:
        if self.searcher not in SEARCHERS:
            known = ", ".join(sorted(SEARCHERS))
            raise KeyError(f"unknown searcher {self.searcher!r}; known: {known}")
        if self.objective not in OBJECTIVES:
            known = ", ".join(sorted(OBJECTIVES))
            raise KeyError(f"unknown objective {self.objective!r}; known: {known}")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be at least 1")
        if not self.ns:
            raise ValueError("need at least one fleet size")
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "mode", DetectionMode(self.mode))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "space": self.space.to_dict(),
            "searcher": self.searcher,
            "objective": self.objective,
            "seed": self.seed,
            "max_evaluations": self.max_evaluations,
            "ns": list(self.ns),
            "periods": self.periods,
            "sweep_seed": self.sweep_seed,
            "mode": self.mode.value,
            "compare_paper": self.compare_paper,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpec":
        return cls(
            space=DesignSpace.from_dict(data["space"]),
            searcher=data.get("searcher", "genetic"),
            objective=data.get("objective", "modelled_time"),
            seed=int(data.get("seed", 2018)),
            max_evaluations=int(data.get("max_evaluations", 24)),
            ns=tuple(data.get("ns", (96, 480, 960))),
            periods=int(data.get("periods", 3)),
            sweep_seed=int(data.get("sweep_seed", 2018)),
            mode=DetectionMode(data.get("mode", "signed")),
            compare_paper=bool(data.get("compare_paper", True)),
        )


def load_search_spec(path: str) -> SearchSpec:
    """Parse a JSON spec file (the ``atm-repro search --spec`` format)."""
    with open(path, "r", encoding="utf-8") as fh:
        return SearchSpec.from_dict(json.load(fh))


def run_search(
    spec: SearchSpec,
    *,
    jobs: Optional[int] = None,
    cache: Any = None,
    traces: Any = None,
    journal: Any = None,
) -> Dict[str, Any]:
    """Execute one search run and return its canonical result dict.

    ``jobs``/``cache``/``traces``/``journal`` configure the ambient
    sweep environment for every candidate evaluation; the search logic
    itself is strictly sequential in the parent process, so the
    trajectory is a pure function of the spec (the jobs=1 vs jobs=N and
    ``--resume`` property tests pin this).
    """
    evaluator = CandidateEvaluator(
        spec.space,
        objective=spec.objective,
        ns=spec.ns,
        seed=spec.sweep_seed,
        periods=spec.periods,
        mode=spec.mode,
        searcher=spec.searcher,
    )
    search_fn = SEARCHERS[spec.searcher]
    with sweep_options(jobs=jobs, cache=cache, traces=traces, journal=journal):
        outcome: SearchOutcome = search_fn(
            spec.space,
            evaluator,
            seed=spec.seed,
            max_evaluations=spec.max_evaluations,
        )
        paper: List[Evaluation] = []
        if spec.compare_paper:
            paper = _paper_evaluations(spec)
    result: Dict[str, Any] = {
        "kind": "atm-search-result",
        "library_version": __version__,
        "spec": spec.to_dict(),
        "best": outcome.best.to_dict() if outcome.best is not None else None,
        "trajectory": [ev.to_dict() for ev in outcome.trajectory],
        "best_fitness_curve": list(outcome.best_fitness_curve),
        "rounds": outcome.rounds,
        "evaluated": sum(1 for ev in outcome.trajectory if ev.evaluated),
        "rejected": sum(1 for ev in outcome.trajectory if not ev.evaluated),
        "pareto": [ev.to_dict() for ev in evaluator.pareto_front()],
        "paper": [ev.to_dict() for ev in paper],
        "dominates_paper": _dominance(outcome.best, paper),
    }
    return result


def _paper_evaluations(spec: SearchSpec) -> List[Evaluation]:
    """The family's named configs, judged on the same axis, unbudgeted.

    A tight search budget must not reject the reference hardware — the
    comparison needs the paper devices' actual time/area coordinates —
    so they are evaluated through a budget-free copy of the space.
    """
    free_space = dataclasses.replace(
        spec.space, budget=Budget(tech_nm=spec.space.budget.tech_nm)
    )
    evaluator = CandidateEvaluator(
        free_space,
        objective=spec.objective,
        ns=spec.ns,
        seed=spec.sweep_seed,
        periods=spec.periods,
        mode=spec.mode,
        searcher="paper",
    )
    out = []
    from .space import _family  # family base table

    for base_key in sorted(_family(spec.space.family).bases):
        point = dataclasses.replace(free_space, base=base_key).base_point()
        out.append(evaluator.evaluate(point))
    return out


def _dominance(
    best: Optional[Evaluation], paper: Sequence[Evaluation]
) -> Dict[str, bool]:
    """base key -> does the best candidate dominate it on (time, area)."""
    out: Dict[str, bool] = {}
    if best is None or not best.evaluated:
        return {ev.point.base: False for ev in paper}
    for ev in paper:
        if not ev.evaluated:
            out[ev.point.base] = False
            continue
        out[ev.point.base] = _dominates(best, ev)
    return out


# ---------------------------------------------------------------------------
# terminal rendering
# ---------------------------------------------------------------------------


def _fmt_point(entry: Mapping[str, Any]) -> str:
    params = entry["point"].get("params", {})
    inner = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{entry['point']['family']}:{entry['point']['base']}" + (
        f" {{{inner}}}" if inner else ""
    )


def render_search(result: Mapping[str, Any]) -> str:
    """Human-readable summary table of one search result."""
    spec = result["spec"]
    lines = [
        f"search: {spec['searcher']} over {spec['space']['family']}"
        f" (base {spec['space']['base']}), objective {spec['objective']}",
        f"seed {spec['seed']}, {result['evaluated']} evaluated,"
        f" {result['rejected']} budget-rejected, {result['rounds']} round(s)",
        "",
    ]
    best = result.get("best")
    if best is None:
        lines.append("no feasible candidate found")
    else:
        lines.append(
            f"best [{best['key']}]: {_fmt_point(best)}\n"
            f"  fitness={best['fitness']:.6g}"
            f"  modelled_time={best['modelled_time_s']:.6g}s"
            f"  worst_margin={best['worst_margin_s']:.6g}s"
            f"  area={best['area_mm2']:.1f}mm2  power={best['power_w']:.1f}W"
        )
    pareto = result.get("pareto") or []
    if pareto:
        lines.append("")
        lines.append(f"pareto front (time x area), {len(pareto)} point(s):")
        for entry in pareto:
            lines.append(
                f"  {entry['modelled_time_s']:>12.6g}s"
                f" {entry['area_mm2']:>8.1f}mm2  {_fmt_point(entry)}"
            )
    paper = result.get("paper") or []
    if paper:
        lines.append("")
        lines.append("paper reference configs on the same axis:")
        dom = result.get("dominates_paper", {})
        for entry in paper:
            mark = "dominated by best" if dom.get(entry["point"]["base"]) else "-"
            lines.append(
                f"  {entry['modelled_time_s']:>12.6g}s"
                f" {entry['area_mm2']:>8.1f}mm2  {_fmt_point(entry)}  [{mark}]"
            )
    return "\n".join(lines) + "\n"
