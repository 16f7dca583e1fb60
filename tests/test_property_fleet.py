"""Property-based tests for the fleet scheduler's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.core.policies import Policy
from repro.fleet.costs import FunctionCosts
from repro.fleet.scheduler import StartKind
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction

SECOND = 1_000_000.0
MINUTE = 60 * SECOND

COSTS = FunctionCosts(
    profile_name="json",
    policy=Policy.FAASNAP,
    warm_us=100_000.0,
    snapshot_us=250_000.0,
    cold_us=2_500_000.0,
    warm_memory_mb=150.0,
)


@st.composite
def arrival_traces(draw):
    functions = draw(st.integers(min_value=1, max_value=4))
    names = [f"f{i}" for i in range(functions)]
    count = draw(st.integers(min_value=1, max_value=60))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=120 * MINUTE),
                min_size=count,
                max_size=count,
            )
        )
    )
    arrivals = [
        Arrival(
            time_us=t,
            function=names[draw(st.integers(0, functions - 1))],
        )
        for t in times
    ]
    return names, ArrivalTrace(
        arrivals=arrivals, duration_us=120 * MINUTE
    )


def build(names, ttl_minutes, budget_mb, snapshots, num_hosts=1):
    fleet = [
        FleetFunction(name=n, profile_name="json", mean_interarrival_us=MINUTE)
        for n in names
    ]
    config = ClusterConfig(
        num_hosts=num_hosts,
        restore_policy=Policy.FAASNAP,
        keep_alive_ttl_us=ttl_minutes * MINUTE,
        memory_budget_mb=budget_mb,
        snapshots_enabled=snapshots,
    )
    return ClusterSimulator(fleet, config, costs={n: COSTS for n in names})


@given(
    arrival_traces(),
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=200.0, max_value=4000.0),
    st.booleans(),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_every_arrival_served_with_valid_latency(
    trace_data, ttl, budget, snapshots, num_hosts
):
    names, trace = trace_data
    report = build(names, ttl, budget, snapshots, num_hosts).run(trace)
    assert report.count() == len(trace)
    # Served exactly once: the served (time, function) multiset is the
    # trace's, and the hosts' invocation counts add up to it.
    assert sorted((s.time_us, s.function) for s in report.served) == sorted(
        (a.time_us, a.function) for a in trace.arrivals
    )
    assert len(report.host_stats) == num_hosts
    assert (
        sum(stats.invocations for stats in report.host_stats.values())
        == len(trace)
    )
    valid = {COSTS.warm_us, COSTS.snapshot_us, COSTS.cold_us}
    for served in report.served:
        assert served.latency_us in valid
        if not snapshots:
            assert served.kind is not StartKind.SNAPSHOT


@given(arrival_traces(), st.floats(min_value=1.0, max_value=60.0))
@settings(max_examples=40, deadline=None)
def test_first_invocation_of_each_function_is_cold(trace_data, ttl):
    names, trace = trace_data
    report = build(names, ttl, 4000.0, True).run(trace)
    seen = set()
    for served in report.served:
        if served.function not in seen:
            assert served.kind is StartKind.COLD
            seen.add(served.function)


@given(arrival_traces())
@settings(max_examples=40, deadline=None)
def test_memory_never_exceeds_budget_plus_one_vm(trace_data):
    names, trace = trace_data
    budget = 500.0
    report = build(names, 30.0, budget, True).run(trace)
    # The scheduler evicts idle VMs to fit; a burst of concurrently
    # *running* VMs can exceed the budget (they cannot be evicted),
    # but samples never exceed budget + the in-flight overcommit.
    running_bound = budget + COSTS.warm_memory_mb * len(trace)
    assert all(m <= running_bound for m in report.memory_samples_mb)
    assert all(m >= 0 for m in report.memory_samples_mb)


@given(arrival_traces())
@settings(max_examples=30, deadline=None)
def test_report_fractions_sum_to_one(trace_data):
    names, trace = trace_data
    report = build(names, 15.0, 4000.0, True).run(trace)
    total = sum(
        report.fraction(kind)
        for kind in (StartKind.WARM, StartKind.SNAPSHOT, StartKind.COLD)
    )
    assert abs(total - 1.0) < 1e-9
