"""Working set of the functional pass at a paper fleet size.

The in-place passes materialize only the cells their own gates keep: a
detection chunk holds its altitude gate (about 17 B per cell) plus the
in-band cells, and Task 1 probes a grid hash instead of a
radars x aircraft matrix.  The all-pairs kernels of
``dense_reference.py`` peak at about 223 MiB (detect) and 60 MiB
(correlate) here, so these bounds fail if either pass falls back to
materializing every cell.
"""

import tracemalloc

from repro.core.collision import detect
from repro.core.radar import generate_radar_frame
from repro.core.setup import setup_flight
from repro.core.tracking import correlate

MIB = 1 << 20
N, SEED = 1920, 2018


def peak_bytes(fn) -> int:
    """Peak traced allocation of ``fn()`` above what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_detect_peak_under_64_mib():
    fleet = setup_flight(N, SEED)
    assert peak_bytes(lambda: detect(fleet)) < 64 * MIB


def test_correlate_peak_under_8_mib():
    fleet = setup_flight(N, SEED)
    frame = generate_radar_frame(fleet, SEED, 0)
    assert peak_bytes(lambda: correlate(fleet, frame)) < 8 * MIB
