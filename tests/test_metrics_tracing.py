"""Tests for span trees, including the phase view of invocations."""

import pytest

from repro.core import FaaSnapPlatform, Policy
from repro.metrics.tracing import Span, Tracer
from repro.workloads.base import INPUT_A, WorkloadProfile

TINY = WorkloadProfile(
    name="tiny-trace",
    description="minimal profile",
    core_pages=200,
    var_base_pages=50,
    var_pool_pages=200,
    anon_base_pages=100,
    compute_base_us=5_000.0,
    spread_factor=5.0,
    total_pages=16_384,
    boot_pages=1_024,
)


def _find(span, name):
    """The first descendant of ``span`` named ``name``, depth-first."""
    return next(
        (node for node, depth in span.walk() if depth and node.name == name),
        None,
    )


def test_closed_span_serializes_without_marker():
    span = Span(name="closed", start_us=3.0, end_us=8.0)
    payload = span.to_dict()
    assert payload["duration_us"] == 5.0
    assert "open" not in payload


def test_record_posthoc_span():
    tracer = Tracer()
    root = Span(name="root", start_us=0.0, end_us=100.0)
    child = Span(name="child", start_us=10.0, end_us=60.0)
    root.children.append(child)
    tracer.roots.append(root)
    assert tracer.roots == [root]
    assert [(span.name, depth) for span, depth in root.walk()] == [
        ("root", 0),
        ("child", 1),
    ]


def test_export_json_roundtrips():
    import json

    tracer = Tracer()
    root = Span(name="root", start_us=0.0, end_us=50.0)
    root.annotate("hello")
    root.children.append(Span(name="child", start_us=5.0, end_us=25.0))
    tracer.roots.append(root)
    parsed = json.loads(tracer.to_json())
    assert parsed[0]["name"] == "root"
    assert parsed[0]["duration_us"] == 50.0
    assert parsed[0]["annotations"] == ["hello"]
    assert parsed[0]["children"][0]["name"] == "child"


def test_span_tags_serialize():
    span = Span(name="x", start_us=0.0, end_us=5.0)
    span.tags["host"] = "host3"
    span.tags["policy"] = "faasnap"
    payload = span.to_dict()
    assert payload["tags"] == {"host": "host3", "policy": "faasnap"}


def test_tracer_to_json_parses():
    import json

    tracer = Tracer()
    root = Span(name="root", start_us=0.0, end_us=50.0)
    root.children.append(Span(name="child", start_us=5.0, end_us=25.0))
    root.tags["host"] = "host0"
    tracer.roots.append(root)
    parsed = json.loads(tracer.to_json())
    assert parsed[0]["tags"] == {"host": "host0"}
    assert parsed[0]["children"][0]["name"] == "child"


@pytest.mark.parametrize(
    "policy",
    [Policy.WARM, Policy.FIRECRACKER, Policy.CACHED, Policy.REAP, Policy.FAASNAP],
    ids=lambda p: p.value,
)
def test_invocation_records_span_tree(policy):
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    tracer = Tracer(default_tags={"host": "host0"})
    result = platform.invoke(handle, INPUT_A, policy, tracer=tracer)
    (root,) = tracer.roots
    assert root.name == f"tiny-trace [{policy.value}]"
    assert root.start_us == result.request_us
    assert root.end_us == result.end_us
    assert all(span.tags == {"host": "host0"} for span, _ in root.walk())
    setup = _find(root, "setup")
    invoke = _find(root, "invoke")
    assert setup is not None and invoke is not None
    assert setup.duration_us == pytest.approx(result.setup_us)
    assert invoke.duration_us == pytest.approx(result.invoke_us)
    fetch = _find(setup, "working-set fetch + UFFDIO_COPY")
    assert (fetch is not None) == (policy is Policy.REAP)
    if fetch is not None:
        assert fetch.duration_us == pytest.approx(result.fetch_time_us)
        assert fetch.end_us == setup.end_us
    loader = _find(root, "concurrent loader")
    assert (loader is not None) == policy.uses_loader
    if loader is not None:
        assert loader.annotations  # fetched N MB note
        # The loader overlaps setup: it starts at request time.
        assert loader.start_us == pytest.approx(root.start_us)
        assert loader.duration_us == pytest.approx(result.fetch_time_us)


def test_reap_invocation_traces_fetch():
    platform = FaaSnapPlatform()
    handle = platform.register_function(TINY)
    tracer = Tracer()
    platform.invoke(handle, INPUT_A, Policy.REAP, tracer=tracer)
    (root,) = tracer.roots
    fetch = _find(root, "working-set fetch + UFFDIO_COPY")
    assert fetch is not None
    assert fetch.duration_us > 0
