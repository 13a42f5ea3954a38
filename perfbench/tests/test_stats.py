"""The tail-percentile rule: the highest percentile that still leaves
at least ten samples above it."""

from qmcbench.stats import TAIL_MIN_ABOVE, tail_percentile


def test_tail_leaves_ten_samples_above():
    values = [float(i) for i in range(1, 51)]  # 1..50
    value, pct, count = tail_percentile(values)
    assert count == 50
    assert sum(1 for v in values if v > value) == TAIL_MIN_ABOVE
    assert value == 40.0
    assert pct == 80.0


def test_tail_skips_ties_that_would_leave_fewer_above():
    values = [1.0] * 5 + [2.0] * 20 + [3.0] * 9
    value, pct, count = tail_percentile(values)
    # 3.0 has nothing above; 2.0 has only 9 above; 1.0 has 29 above
    assert value == 1.0
    assert pct == 100.0 * 5 / 34


def test_too_few_samples_report_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
