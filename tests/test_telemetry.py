"""Tests for the unified telemetry layer: registry, profiler,
sampler, cross-layer instrumentation, and the zero-perturbation
invariant."""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.core import FaaSnapPlatform, Policy
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction
from repro.metrics.stats import FIGURE2_EDGES
from repro.metrics.telemetry import (
    HistogramInstrument,
    MetricsRegistry,
    Profiler,
    Sampler,
    TelemetryError,
    hit_rates,
    render_run_report,
)
from repro.sim import Environment
from repro.workloads import get_profile
from repro.workloads.base import INPUT_A

SECOND = 1_000_000.0


# -- registry ----------------------------------------------------------


def test_counter_inc_and_idempotent_creation():
    registry = MetricsRegistry()
    ctr = registry.counter("a.b")
    ctr.inc()
    ctr.inc(3)
    assert ctr.read() == 4
    assert registry.counter("a.b") is ctr
    assert registry.get("a.b") is ctr


def test_kind_collision_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TelemetryError):
        registry.gauge("x", lambda: 0)
    with pytest.raises(TelemetryError):
        registry.histogram("x")
    with pytest.raises(TelemetryError):
        registry.pull_counter("x", lambda: 0)


def test_pull_counter_reads_live_state():
    registry = MetricsRegistry()
    state = {"n": 0}
    pull = registry.pull_counter("live", lambda: state["n"])
    assert pull.read() == 0
    state["n"] = 7
    assert pull.read() == 7


def test_unique_prefix_suffixes_collisions():
    registry = MetricsRegistry()
    assert registry.unique_prefix("host") == "host"
    assert registry.unique_prefix("host") == "host.2"
    assert registry.unique_prefix("host") == "host.3"
    assert registry.unique_prefix("other") == "other"


def test_histogram_instrument_buckets_and_sum():
    inst = HistogramInstrument("h", [0.0, 1.0, 10.0])
    for value in (0.5, 5.0, 100.0, -2.0):
        inst.observe(value)
    assert inst.histogram.counts == [2, 1, 1]
    assert inst.count == 4
    assert inst.sum == pytest.approx(103.5)


def test_histogram_instrument_matches_linear_scan_add():
    """The bisect fast path must bucket exactly like Histogram.add."""
    from repro.metrics.stats import Histogram

    inst = HistogramInstrument("h", FIGURE2_EDGES)
    reference = Histogram(edges=list(FIGURE2_EDGES))
    values = [0.1, 0.5, 0.9, 1.0, 3.3, 512.0, 9999.0]
    for v in values:
        inst.observe(v)
        reference.add(v)
    assert inst.histogram.counts == reference.counts


def test_collect_groups_by_kind():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.gauge("g", lambda: 11)
    registry.histogram("h", [0.0, 1.0]).observe(0.5)
    snapshot = registry.collect()
    assert snapshot["counters"] == {"c": 2}
    assert snapshot["gauges"] == {"g": 11}
    assert snapshot["histograms"]["h"]["counts"] == [1, 0]
    assert snapshot["histograms"]["h"]["count"] == 1


# -- profiler ----------------------------------------------------------


def test_profiler_phases_and_coverage():
    profiler = Profiler()
    profiler.phase("setup", 0.0, 40.0)
    profiler.phase("invoke", 40.0, 100.0)
    profiler.add("fault.minor", 5.0, events=3)  # detail, not a phase
    assert profiler.attributed_us() == pytest.approx(100.0)
    assert profiler.coverage(100.0) == pytest.approx(1.0)
    assert profiler.coverage(200.0) == pytest.approx(0.5)


def test_profiler_report_rows_include_unattributed():
    profiler = Profiler()
    profiler.phase("setup", 0.0, 60.0)
    rows = profiler.report_rows(total_us=100.0)
    assert rows[-1][0] == "(unattributed)"
    assert rows[-1][1] == pytest.approx(0.04)  # 40 us in ms
    assert rows[-1][3] == pytest.approx(40.0)  # share %


def test_profiler_pull_components_merge():
    profiler = Profiler()
    profiler.add("device.service", 10.0, events=2)
    profiler.add_pull("device.service", lambda: (5.0, 1))
    stat = profiler.components()["device.service"]
    assert stat.time_us == pytest.approx(15.0)
    assert stat.events == 3
    # Pulls are read at collection time, never folded into the owned
    # state: a second snapshot sees the same numbers.
    again = profiler.components()["device.service"]
    assert again.time_us == pytest.approx(15.0)


# -- sampler -----------------------------------------------------------


def test_sampler_rejects_nonpositive_interval():
    registry = MetricsRegistry()
    env = Environment()
    with pytest.raises(TelemetryError):
        Sampler(registry, env, 0.0)


def test_sampler_polls_gauges_on_virtual_interval():
    env = Environment()
    registry = env.metrics
    registry.gauge("clock", lambda: env.now)
    sampler = Sampler(registry, env, interval_us=10.0)
    sampler.start()

    def driver():
        yield env.timeout(35.0)

    env.run(until=env.process(driver()))
    sampler.stop()
    # Virtual time halted at 35.0, between ticks: stop() flushes one
    # final sample at the stop horizon so the partial window survives.
    expected = [0.0, 10.0, 20.0, 30.0, 35.0]
    assert [t for t, _ in sampler.samples] == pytest.approx(expected)
    assert sampler.values("clock") == pytest.approx(expected)
    # A second stop() is idempotent — no duplicate flush.
    sampler.stop()
    assert len(sampler.samples) == len(expected)


def test_sampler_percentile_nearest_rank():
    env = Environment()
    registry = env.metrics
    sampler = Sampler(registry, env, interval_us=1.0)
    for value in (10.0, 30.0, 20.0, 40.0):
        sampler.samples.append((env.now, {"g": value}))
    assert sampler.percentile("g", 0) == 10.0
    assert sampler.percentile("g", 50) == 20.0
    assert sampler.percentile("g", 100) == 40.0
    assert sampler.percentile("missing", 50) == 0.0


def test_sampler_as_dict_is_columnar():
    env = Environment()
    sampler = Sampler(env.metrics, env, interval_us=5.0)
    sampler.samples.append((0.0, {"a": 1}))
    sampler.samples.append((5.0, {"a": 2, "b": 9}))
    doc = sampler.as_dict()
    assert doc["interval_us"] == 5.0
    assert doc["times_us"] == [0.0, 5.0]
    assert doc["gauges"]["a"] == [1, 2]
    assert doc["gauges"]["b"] == [None, 9]  # late-registered gauge


# -- cross-layer instrumentation ---------------------------------------


def invoke_platform(policy=Policy.FAASNAP, with_sampler=False):
    platform = FaaSnapPlatform()
    handle = platform.register_function(get_profile("hello-world"))
    sampler = None
    if with_sampler:
        sampler = Sampler(platform.metrics, platform.env, 1_000.0)
        sampler.start()
    result = platform.invoke(handle, INPUT_A, policy)
    if sampler is not None:
        sampler.stop()
    return platform, result, sampler


def test_one_registry_holds_every_layer():
    platform, _, _ = invoke_platform()
    # Kernel, storage, page cache, fault/vcpu/uffd, and host layers
    # all report into the same per-Environment registry.
    for name in (
        "sim.engine.events",
        "host0.device.requests",
        "host0.page_cache.hits",
        "host0.fault.time_us",
        "host0.vcpu.fast_path_accesses",
        "host0.uffd.delegated_faults",
        "host0.invocations",
    ):
        assert platform.metrics.get(name) is not None, name
    assert platform.metrics is platform.env.metrics


def test_invoke_populates_fault_telemetry():
    platform, result, _ = invoke_platform()
    registry = platform.metrics
    fault_hist = registry.get("host0.fault.time_us")
    # Record phase + test phase both absorb their fault records.
    assert fault_hist.count >= result.fault_count()
    hits = registry.get("host0.page_cache.hits").read()
    misses = registry.get("host0.page_cache.misses").read()
    assert hits + misses > 0
    (row,) = hit_rates(registry)
    assert row[0] == "host0"
    assert row[1] == hits
    assert registry.get("host0.invocations").read() == 1
    assert registry.get("host0.record_phases").read() == 1


def test_profiler_attributes_virtual_time():
    """The acceptance bar: phases must explain >= 95% of a multi-policy
    run's virtual time, with the remainder reported explicitly."""
    platform = FaaSnapPlatform()
    handle = platform.register_function(get_profile("hello-world"))
    for policy in (Policy.FAASNAP, Policy.REAP, Policy.CACHED):
        platform.invoke(handle, INPUT_A, policy)
    profiler = platform.metrics.profiler
    coverage = profiler.coverage(platform.env.now)
    assert coverage >= 0.95
    rows = profiler.report_rows(platform.env.now)
    assert rows[-1][0] == "(unattributed)"
    components = profiler.components()
    assert "phase.record" in components
    assert "phase.invoke" in components
    assert "phase.setup.faasnap" in components
    assert "fault.minor" in components


def test_render_run_report_sections():
    platform, _, sampler = invoke_platform(with_sampler=True)
    report = render_run_report(
        platform.metrics, platform.env.now, sampler=sampler
    )
    assert "Profiler phases" in report
    assert "(unattributed)" in report
    assert "Page-cache hit rates" in report
    assert "Counters" in report
    assert "Sampled gauges" in report


def test_vcpu_path_counters_cover_every_access():
    platform, result, _ = invoke_platform()
    registry = platform.metrics
    fast = registry.get("host0.vcpu.fast_path_accesses").read()
    slow = registry.get("host0.vcpu.event_path_accesses").read()
    assert fast > 0
    # Every access takes one of the two paths; the fault-time
    # histogram skips the kind="none" records the paths still count.
    assert fast + slow >= registry.get("host0.fault.time_us").count


# -- cluster instrumentation -------------------------------------------


def cluster_run(sampler_interval_us=None):
    fleet = [
        FleetFunction(
            name="hello-world",
            profile_name="hello-world",
            mean_interarrival_us=SECOND,
        )
    ]
    trace = ArrivalTrace(
        arrivals=[
            Arrival(time_us=t * SECOND, function="hello-world")
            for t in (0.0, 30.0, 45.0)
        ],
        duration_us=46 * SECOND,
    )
    config = ClusterConfig(num_hosts=2, keep_alive_ttl_us=18 * SECOND)
    simulator = ClusterSimulator(fleet, config)
    report = simulator.run(trace, sampler_interval_us=sampler_interval_us)
    return simulator, report


def test_cluster_registry_covers_scheduler_and_hosts():
    simulator, report = cluster_run()
    for name in (
        "cluster.scheduler.invocations",
        "cluster.placement.decisions",
        "cluster.placement.to.host0",
        "host0.scheduler.active",
        "host1.scheduler.memory_mb",
        "host0.page_cache.hits",
    ):
        assert simulator.registry.get(name) is not None, name
    invocations = simulator.registry.get("cluster.scheduler.invocations")
    assert invocations.read() == report.count()
    decisions = simulator.registry.get("cluster.placement.decisions")
    assert decisions.read() == report.count()


def test_cluster_sampler_records_series():
    simulator, _ = cluster_run(sampler_interval_us=SECOND)
    sampler = simulator.sampler
    assert sampler is not None
    assert len(sampler.samples) > 10
    assert "host0.scheduler.active" in sampler.gauge_names()


# -- zero perturbation -------------------------------------------------


def canonical(result):
    return (
        result.setup_us,
        result.invoke_us,
        result.fetch_time_us,
        result.uffd_faults,
        tuple(
            (r.kind, r.page, r.start_us, r.duration_us, r.block_requests)
            for r in result.fault_records
        ),
    )


def test_sampler_does_not_perturb_invocation():
    _, bare, _ = invoke_platform()
    _, sampled, _ = invoke_platform(with_sampler=True)
    assert canonical(bare) == canonical(sampled)


def test_sampler_does_not_perturb_cluster():
    _, bare = cluster_run()
    _, sampled = cluster_run(sampler_interval_us=100_000.0)
    assert [s.latency_us for s in bare.served] == [
        s.latency_us for s in sampled.served
    ]
    assert [s.kind for s in bare.served] == [s.kind for s in sampled.served]
