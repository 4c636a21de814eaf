"""Unit tests of the benchmark's one summary implementation.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e`` from the
repository root.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import stats  # noqa: E402


def test_percentile_is_nearest_rank():
    sample = [15, 20, 35, 40, 50]
    assert stats.percentile(sample, 0.05) == 15
    assert stats.percentile(sample, 0.30) == 20
    assert stats.percentile(sample, 0.40) == 20
    assert stats.percentile(sample, 0.50) == 35
    assert stats.percentile(sample, 1.00) == 50


def test_percentile_returns_an_observed_value_and_ignores_order():
    sample = [9.5, 0.25, 3.0, 7.75]
    for quantile in (0.1, 0.5, 0.9, 0.99):
        assert stats.percentile(sample, quantile) in sample
    assert stats.percentile(sample, 0.5) == stats.percentile(sorted(sample), 0.5)


def test_percentile_rejects_empty_samples_and_bad_quantiles():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.supported(200, 0.95)
    assert not stats.supported(199, 0.95)
    assert stats.supported(1000, 0.99)
    assert not stats.supported(999, 0.99)
    assert not stats.supported(0, 0.95)


def test_highest_supported_quantile_grows_with_the_sample():
    assert stats.highest_supported_quantile(50) is None
    assert stats.highest_supported_quantile(100) == 0.90
    assert stats.highest_supported_quantile(200) == 0.95
    assert stats.highest_supported_quantile(1000) == 0.99
    assert stats.highest_supported_quantile(10000) == 0.999


def test_quantile_labels():
    assert stats.quantile_label(0.95) == "p95"
    assert stats.quantile_label(0.999) == "p99.9"


def test_summarize_reports_count_quartiles_and_supported_tail():
    summary = stats.summarize(list(range(1, 401)))
    assert summary["count"] == 400
    assert summary["p50"] == 200
    assert (summary["q1"], summary["q3"]) == (100, 300)
    assert summary["tail"] == "p95"
    assert summary["tail_value"] == 380
    assert "tail" not in stats.summarize([1.0, 2.0, 3.0])
    assert stats.summarize([]) == {"count": 0}


def test_median_of_an_empty_sample_is_zero():
    assert stats.median([]) == 0.0
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


def test_relative_spread_is_quartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.relative_spread(values) == pytest.approx(5.5 / 14.5)
    assert stats.relative_spread([7.0] * 10) == 0.0
    assert stats.relative_spread([1.0]) == 0.0
