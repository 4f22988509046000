import pytest

from perfbench.workloads import P99_MIN_SAMPLES, tail_percentile


def test_p99_needs_ten_samples_above_it():
    samples = list(range(1, P99_MIN_SAMPLES + 1))
    assert tail_percentile(samples, 99) == 990
    assert sum(s > 990 for s in samples) == 10
    with pytest.raises(ValueError, match="9 above"):
        tail_percentile(samples[:-1], 99)


def test_median_rule_is_nearest_rank():
    assert tail_percentile(range(1, 22), 50) == 11
    with pytest.raises(ValueError):
        tail_percentile(range(1, 20), 50)
