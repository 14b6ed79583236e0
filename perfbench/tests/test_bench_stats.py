"""Percentiles and their sample-count reporting.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import median_or_zero, percentile, summary, supported  # noqa: E402


def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 90) == pytest.approx(3.7)
    assert percentile([5.0], 90) == 5.0


def test_percentile_matches_numpy_default():
    np = pytest.importorskip("numpy")
    values = np.random.default_rng(3).exponential(size=137).tolist()
    for q in (10, 50, 90, 99):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_input_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_p90_needs_ten_samples_beyond_it():
    assert not supported(99, 90)
    assert supported(100, 90)
    assert supported(20, 50) and not supported(19, 50)
    assert not supported(999, 99) and supported(1000, 99)


def test_summary_states_count_and_scales():
    report = summary([0.001 * i for i in range(1, 101)], scale=1e3)
    assert report["n"] == 100
    assert report["p50"] == pytest.approx(50.5)
    assert report["p90"] == pytest.approx(90.1)
    assert report["p90_supported"] is True
    assert summary([0.5])["p90_supported"] is False


def test_median_or_zero_reads_zero_for_an_unreached_layer():
    assert median_or_zero([]) == 0.0
    assert median_or_zero([3.0, 1.0, 2.0]) == 2.0
