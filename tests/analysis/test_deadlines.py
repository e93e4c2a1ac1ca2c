"""Unit tests for deadline reports and the schedule SLO recorder."""

import json

import pytest

from repro.analysis.deadlines import (
    DeadlineReport,
    DeadlineRow,
    record_schedule_metrics,
)
from repro.core import constants as C
from repro.core.scheduler import run_schedule
from repro.core.setup import setup_flight
from repro.extended import TerrainGrid, run_extended_schedule
from repro.obs.metrics import MetricsRegistry, recording

from ..core.test_scheduler import FakeBackend


def row(platform, n, missed, worst_ms=10.0, periods=16, skipped=0):
    return DeadlineRow(
        platform=platform,
        n_aircraft=n,
        periods=periods,
        missed=missed,
        skipped=skipped,
        miss_rate=missed / periods,
        worst_period_ms=worst_ms,
        mean_utilization=0.1,
    )


@pytest.fixture
def report():
    return DeadlineReport(
        rows=[
            row("gpu", 96, 0),
            row("gpu", 960, 0),
            row("xeon", 96, 0),
            row("xeon", 960, 3, worst_ms=800.0),
        ]
    )


class TestDeadlineReport:
    def test_never_missing(self, report):
        assert report.platforms_never_missing() == ["gpu"]

    def test_missing(self, report):
        assert report.platforms_missing() == ["xeon"]

    def test_first_miss_n(self, report):
        assert report.first_miss_n("xeon") == 960
        assert report.first_miss_n("gpu") is None

    def test_headroom(self, report):
        budget_ms = C.PERIOD_SECONDS * 1e3
        assert report.headroom("gpu") == pytest.approx(budget_ms - 10.0)
        assert report.headroom("xeon") < 0

    def test_headroom_unknown_platform(self, report):
        with pytest.raises(KeyError):
            report.headroom("cray")

    def test_summary_lines(self, report):
        lines = report.summary_lines()
        assert any("gpu" in ln and "0/32" in ln for ln in lines)
        assert any("xeon" in ln and "3/32" in ln for ln in lines)

    def test_by_platform_grouping(self, report):
        groups = report.by_platform()
        assert set(groups) == {"gpu", "xeon"}
        assert len(groups["gpu"]) == 2


class TestFromSchedule:
    def test_round_trip(self):
        from repro.backends.reference import ReferenceBackend
        from repro.core.scheduler import run_schedule
        from repro.core.setup import setup_flight

        result = run_schedule(ReferenceBackend(), setup_flight(32, 1))
        r = DeadlineRow.from_schedule(result)
        assert r.platform == "reference"
        assert r.periods == 16
        assert r.never_misses


class TestRecordScheduleMetrics:
    """Both task tables label their collision periods alike, whether
    Task 2+3 ran there or was skipped for lack of budget."""

    @pytest.mark.parametrize("table", ["paper", "extended"])
    @pytest.mark.parametrize("task1_s, misses", [(0.001, 0), (0.55, 32)])
    def test_collision_periods_labelled(self, table, task1_s, misses):
        backend = FakeBackend(task1_s, 0.001)
        fleet = setup_flight(32, 2018)
        with recording(MetricsRegistry()) as registry:
            if table == "paper":
                result = run_schedule(backend, fleet, major_cycles=2)
            else:
                grid = TerrainGrid.generate(2018, resolution_nm=4.0)
                result = run_extended_schedule(
                    backend, fleet, terrain=grid, major_cycles=2
                )
            record_schedule_metrics(result)
        margins = registry.series("atm_deadline_margin_seconds")
        by_period = {json.loads(k)["period"]: h.count for k, h in margins.items()}
        assert by_period == {"collision": 2, "tracking": 30}
        assert result.missed_deadlines == misses
        assert registry.value(
            "atm_deadline_misses", platform="fake", n_aircraft=32, source="schedule"
        ) == misses
