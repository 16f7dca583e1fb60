"""Unit tests for fleet workload synthesis."""

from collections import Counter

import pytest

from repro.fleet.workload import (
    ArrivalTrace,
    FleetFunction,
    US_PER_HOUR,
    US_PER_MINUTE,
    frequency_quantiles,
    generate_arrivals,
    synthesize_fleet,
)


def test_synthesize_fleet_basic():
    fleet = synthesize_fleet(50, seed=3)
    assert len(fleet) == 50
    assert len({f.name for f in fleet}) == 50
    for function in fleet:
        assert function.mean_interarrival_us > 0
        assert function.profile_name


def test_synthesize_fleet_deterministic():
    a = synthesize_fleet(20, seed=7)
    b = synthesize_fleet(20, seed=7)
    assert a == b
    c = synthesize_fleet(20, seed=8)
    assert a != c


def test_fleet_matches_azure_quantiles():
    """Paper §2.1: <50% of functions invoked hourly, <10% every
    minute — the quantiles the default bounds were solved for."""
    fleet = synthesize_fleet(4000, seed=1)
    quantiles = frequency_quantiles(fleet)
    assert 0.30 < quantiles["at_least_hourly"] < 0.55
    assert 0.02 < quantiles["at_least_minutely"] < 0.14


def test_synthesize_fleet_validation():
    with pytest.raises(ValueError):
        synthesize_fleet(0)
    with pytest.raises(ValueError):
        synthesize_fleet(5, hot_interarrival_us=100, cold_interarrival_us=50)


def test_generate_arrivals_sorted_and_bounded():
    fleet = synthesize_fleet(30, seed=2)
    trace = generate_arrivals(fleet, duration_us=2 * US_PER_HOUR, seed=2)
    times = [a.time_us for a in trace.arrivals]
    assert times == sorted(times)
    assert all(0 <= t < 2 * US_PER_HOUR for t in times)
    assert trace.duration_us == 2 * US_PER_HOUR


def test_generate_arrivals_rate_roughly_matches():
    fn = FleetFunction(
        name="f", profile_name="json", mean_interarrival_us=US_PER_MINUTE
    )
    trace = generate_arrivals([fn], duration_us=10 * US_PER_HOUR, seed=5)
    expected = 10 * 60
    assert expected * 0.7 < len(trace) < expected * 1.3


def test_generate_arrivals_deterministic():
    fleet = synthesize_fleet(10, seed=4)
    t1 = generate_arrivals(fleet, US_PER_HOUR, seed=9)
    t2 = generate_arrivals(fleet, US_PER_HOUR, seed=9)
    assert t1.arrivals == t2.arrivals


def test_generate_arrivals_validation():
    with pytest.raises(ValueError):
        generate_arrivals([], duration_us=0)


def test_per_function_counts():
    fleet = synthesize_fleet(5, seed=6)
    trace = generate_arrivals(fleet, 5 * US_PER_HOUR, seed=6)
    counts = Counter(arrival.function for arrival in trace.arrivals)
    assert sum(counts.values()) == len(trace)
    assert set(counts) <= {function.name for function in fleet}
