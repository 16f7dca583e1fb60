"""Unit tests for statistics, histograms and table rendering."""

import pytest

from repro.metrics import (
    Histogram,
    fault_time_histogram,
    geometric_mean,
    mean,
    render_table,
    stddev,
)
from repro.metrics.stats import FIGURE2_EDGES


# -- scalar stats ---------------------------------------------------


def test_mean():
    assert mean([1, 2, 3]) == 2.0
    assert mean([]) == 0.0


def test_stddev():
    assert stddev([5]) == 0.0
    assert stddev([]) == 0.0
    assert stddev([2, 4]) == pytest.approx(1.0)
    assert stddev([3, 3, 3]) == 0.0


def test_geometric_mean():
    assert geometric_mean([1, 4]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    with pytest.raises(ValueError):
        geometric_mean([1, 0])
    with pytest.raises(ValueError):
        geometric_mean([-1])


# -- histogram ---------------------------------------------------------


def test_histogram_edge_validation():
    with pytest.raises(ValueError):
        Histogram(edges=[1.0])
    with pytest.raises(ValueError):
        Histogram(edges=[2.0, 1.0])


def test_histogram_add_and_buckets():
    histogram = Histogram(edges=[0.0, 1.0, 10.0])
    for value in (0.5, 0.9, 5.0, 100.0):
        histogram.add(value)
    assert histogram.counts == [2, 1, 1]
    assert histogram.total == 4
    labels = [label for label, _ in histogram.buckets()]
    assert labels == ["[0,1)", "[1,10)", ">=10"]
    assert dict(histogram.buckets())["[0,1)"] == 2


def test_histogram_below_first_edge_goes_to_first_bucket():
    histogram = Histogram(edges=[1.0, 2.0])
    histogram.add(0.1)
    assert histogram.counts == [1, 0]


def test_figure2_edges_are_powers_of_two():
    assert FIGURE2_EDGES[0] == 0.5
    assert FIGURE2_EDGES[-1] == 512.0
    for a, b in zip(FIGURE2_EDGES, FIGURE2_EDGES[1:]):
        assert b == 2 * a


def test_fault_time_histogram():
    histogram = fault_time_histogram([2.5, 3.7, 100.0, 600.0])
    assert histogram.total == 4
    assert dict(histogram.buckets())[">=512"] == 1


def test_histogram_percentile_nearest_rank():
    histogram = Histogram(edges=[0.0, 1.0, 10.0, 100.0])
    for value in (0.5, 0.6, 5.0, 50.0):
        histogram.add(value)
    # Ranks resolve to the lower edge of the holding bucket.
    assert histogram.percentile(0) == 0.0
    assert histogram.percentile(50) == 0.0
    assert histogram.percentile(75) == 1.0
    assert histogram.percentile(100) == 10.0


def test_histogram_percentile_empty():
    assert Histogram(edges=[0.0, 1.0]).percentile(99) == 0.0


def test_histogram_percentile_single_bucket():
    histogram = Histogram(edges=[1.0, 2.0])
    histogram.add(1.5)
    for p in (0, 50, 99, 100):
        assert histogram.percentile(p) == 1.0


def test_histogram_percentile_overflow_bucket():
    histogram = Histogram(edges=[0.0, 1.0])
    histogram.add(999.0)
    assert histogram.percentile(100) == 1.0


def test_histogram_merge_sums_counts():
    a = Histogram(edges=[0.0, 1.0, 10.0])
    b = Histogram(edges=[0.0, 1.0, 10.0])
    a.add_all([0.5, 5.0])
    b.add_all([0.5, 100.0])
    merged = a.merge(b)
    assert merged.counts == [2, 1, 1]
    # Inputs untouched: merge returns a new histogram.
    assert a.counts == [1, 1, 0]
    assert b.counts == [1, 0, 1]


def test_histogram_merge_empty_is_identity():
    a = Histogram(edges=[0.0, 1.0])
    a.add(0.5)
    merged = a.merge(Histogram(edges=[0.0, 1.0]))
    assert merged.counts == a.counts


def test_histogram_merge_rejects_mismatched_edges():
    with pytest.raises(ValueError):
        Histogram(edges=[0.0, 1.0]).merge(Histogram(edges=[0.0, 2.0]))


# -- table rendering ------------------------------------------------------


def test_render_table_alignment():
    out = render_table(
        ["name", "value"],
        [["alpha", 1.0], ["b", 123456.0]],
        title="T",
    )
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "alpha" in lines[3]
    assert "123456" in lines[4]


def test_render_table_float_precision():
    out = render_table(["v"], [[0.1234], [12.3], [1234.5]])
    assert "0.123" in out
    assert "12.3" in out
    assert "1235" in out or "1234" in out


def test_render_table_empty_rows():
    out = render_table(["a", "b"], [])
    assert "a" in out and "b" in out

