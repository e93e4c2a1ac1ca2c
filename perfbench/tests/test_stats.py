import pytest

from stats import percentile, samples_beyond


def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_p99_of_few_samples_is_the_slowest():
    assert percentile([5.0, 9.0, 7.0], 99) == 9.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_samples_beyond_the_percentile():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(2500, 99) == 25
    assert samples_beyond(50, 99) == 0
    assert samples_beyond(0, 99) == 0
    # The count matches the ranks above the nearest-rank p99.
    values = list(range(2500))
    p99 = percentile(values, 99)
    assert sum(1 for v in values if v > p99) == samples_beyond(2500, 99)
