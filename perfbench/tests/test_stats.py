"""The tail-percentile rule: at least ten samples beyond the tail, the
tail at most p80, and the worst per-solver mean."""

import pytest

from cobench.stats import (MAX_TAIL_PCT, MIN_BEYOND, latency_summary,
                           percentile, tail_percentile, worst_mean)


def beyond(n: int, p: float) -> int:
    """Samples strictly above the interpolation position of ``p``."""
    pos = (n - 1) * p / 100.0
    return sum(1 for i in range(n) if i > pos)


@pytest.mark.parametrize("n", [20, 21, 39, 40, 57, 100, 101, 999, 1000, 5000])
def test_tail_has_ten_samples_beyond(n):
    p = tail_percentile(n)
    assert p <= MAX_TAIL_PCT
    assert beyond(n, p) >= MIN_BEYOND
    if p < MAX_TAIL_PCT:
        assert beyond(n, p + 1) < MIN_BEYOND


@pytest.mark.parametrize("n", [51, 1000, 5000])
def test_long_runs_cap_the_tail_at_p80(n):
    assert tail_percentile(n) == MAX_TAIL_PCT == 80


@pytest.mark.parametrize("n", [0, 1, 5, 19])
def test_too_few_samples_fall_back_to_the_median(n):
    assert tail_percentile(n) == 50


def test_percentile_interpolates():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 75) == 4.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


def test_summary_records_percentile_and_count():
    s = latency_summary([float(i) for i in range(100)])
    assert s["n"] == 100
    assert s["tail_pct"] == 80
    assert s["tail"] == pytest.approx(79.2)
    assert s["p50"] == pytest.approx(49.5)


def test_worst_mean_is_not_diluted_by_other_solvers():
    ratios = [("oastar", 1.0)] * 9 + [("hastar", 1.0), ("hastar", 1.1)]
    assert worst_mean(ratios) == pytest.approx(1.05)
