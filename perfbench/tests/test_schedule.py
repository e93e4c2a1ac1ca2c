import service
from run import op_seed


def test_same_seed_same_schedule_and_mix():
    assert service.schedule(2018, 5.0) == service.schedule(2018, 5.0)
    assert service.hot_cells(2018) == service.hot_cells(2018)
    assert service.schedule(2018, 5.0) != service.schedule(2019, 5.0)


def test_mix_shape():
    requests = service.schedule(7, 20.0)
    assert 1500 < len(requests) < 2500  # ~RATE_PER_S * 20
    dues = [r.due_s for r in requests]
    assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < 20.0
    fresh = [r for r in requests if r.fresh]
    assert len(fresh) == len(requests) // service.FRESH_EVERY
    hot = set(service.hot_cells(7))
    assert len(hot) == 140
    assert all(r.cell in hot for r in requests if not r.fresh)
    fresh_cells = [r.cell for r in fresh]
    assert len(set(fresh_cells)) == len(fresh_cells)
    assert not {c[2] for c in fresh_cells} & {c[2] for c in hot}
    # Fresh fleet sizes come in shuffled blocks, one of each size per block.
    sizes = [c[1] for c in fresh_cells]
    for start in range(0, len(sizes) - len(service.NS) + 1, len(service.NS)):
        assert sorted(sizes[start:start + len(service.NS)]) == sorted(service.NS)


def test_expected_counts_follow_the_schedule():
    requests = service.schedule(3, 10.0)
    counts = service.expected_counts(requests)
    assert counts["computed"] + counts["cache"] == counts["requests"] == len(requests)
    assert counts["disk_hits"] + counts["memory_hits"] == counts["cache"]
    assert counts["journal_lines"] == 2 * counts["computed"]


def test_batch_input_seed():
    pinned = [2021, 2018, 2019, 2020]
    assert op_seed("report", 2019, pinned) == 2019
    assert op_seed("report", 5, pinned) == 2018
    assert op_seed("large_n", 2021, pinned) == 2021
