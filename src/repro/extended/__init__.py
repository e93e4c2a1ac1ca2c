"""The complete ATM system — the paper's §7.1 future work, built.

Adds the remaining periodic tasks of the Goodyear STARAN ATC software
[13] on top of the three the paper evaluates: terrain avoidance over a
synthetic elevation substrate, final-approach in-trail spacing on a
runway corridor, and the rate-limited automatic voice advisory channel —
with per-platform timing adapters reusing each machine model's own cost
machinery.
"""

from .advisory import Advisory, AdvisoryChannel, AdvisoryKind, AdvisoryStats
from .approach import ApproachStats, Runway, sequence_approach
from .costs import advisory_timing, approach_timing, display_timing, terrain_timing
from .display import DisplayStats, ScopeConfig, build_display
from .simulation import FullAtmSimulation
from .scheduler import run_extended_schedule
from .terrain import TerrainGrid
from .terrain_avoidance import TerrainStats, check_terrain

__all__ = [
    "Advisory",
    "AdvisoryChannel",
    "AdvisoryKind",
    "AdvisoryStats",
    "ApproachStats",
    "Runway",
    "sequence_approach",
    "advisory_timing",
    "approach_timing",
    "display_timing",
    "terrain_timing",
    "DisplayStats",
    "ScopeConfig",
    "build_display",
    "FullAtmSimulation",
    "run_extended_schedule",
    "TerrainGrid",
    "TerrainStats",
    "check_terrain",
]
