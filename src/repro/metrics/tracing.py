"""Span trees of invocations.

The paper's artifact evaluates runs by inspecting per-invocation
traces in Zipkin (appendix A.4: "the execution traces of invocations
are accessible on the Zipkin web page"). This module provides the
same visibility for simulated invocations. A restore reports its
phases once, in its :class:`~repro.core.restore.InvocationResult`;
:func:`phase_spans` is the span-tree view of that result, a
:class:`Tracer` collects the trees of a run, :func:`render_trace`
prints one as an indented tree with durations, and
:meth:`Tracer.to_json` exports the Zipkin-flavoured JSON document
that the CLI's ``--trace-out`` writes. The cluster's causal ``phase``
records are the depth-first flattening of the same tree
(:meth:`Span.walk`).

Spans carry string *tags* (Zipkin's binary annotations), e.g. the
``host`` that ran the invocation, so a multi-host trace keeps
per-host attribution while still serialising as one document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed operation, possibly with children."""

    name: str
    start_us: float
    end_us: float
    children: List["Span"] = field(default_factory=list)
    annotations: List[str] = field(default_factory=list)
    #: Zipkin-style key/value tags (e.g. ``{"host": "host2"}``).
    tags: Dict[str, str] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def annotate(self, note: str) -> None:
        self.annotations.append(note)

    def tag(self, key: str, value: str) -> None:
        self.tags[key] = value

    def to_dict(self) -> dict:
        """JSON-ready representation (Zipkin-flavoured fields)."""
        return {
            "name": self.name,
            "timestamp_us": self.start_us,
            "duration_us": self.end_us - self.start_us,
            "annotations": list(self.annotations),
            "tags": dict(self.tags),
            "children": [child.to_dict() for child in self.children],
        }

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first lookup of a descendant span by name."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """This span and its descendants depth-first, with depths."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


class Tracer:
    """The span trees of a run, in the order their invocations ended.

    ``default_tags`` are stamped onto every tree :meth:`add` appends.
    """

    def __init__(self, default_tags: Optional[Dict[str, str]] = None):
        self.default_tags: Dict[str, str] = dict(default_tags or {})
        self.roots: List[Span] = []

    def add(self, result, **tags: str) -> Span:
        """Append the span tree of ``result`` (an
        :class:`~repro.core.restore.InvocationResult`), tagged with
        the default tags plus ``tags``."""
        root = phase_spans(result, **{**self.default_tags, **tags})
        self.roots.append(root)
        return root

    def to_json(self) -> str:
        """All recorded root spans as a JSON document."""
        return json.dumps(
            [root.to_dict() for root in self.roots],
            indent=2,
            sort_keys=True,
        )


def phase_spans(result, **tags: str) -> Span:
    """The span tree of one invocation: a pure view of its result.

    The root runs from the request to the end of the invocation. Its
    children are the set-up (holding REAP's blocking working-set
    fetch), the guest's run, and a concurrent loader's fetch with the
    bytes and requests it read. A cold start's root runs from the
    start of the boot, with a ``cold boot`` child before the
    invocation's own children. Every span carries ``tags``.
    """
    # Imported here: repro.core needs the simulator, whose engine
    # imports this package.
    from repro.core.policies import Policy

    def span(name: str, start_us: float, end_us: float, parent=None) -> Span:
        node = Span(name, start_us, end_us, tags=dict(tags))
        if parent is not None:
            parent.children.append(node)
        return node

    request, end = result.request_us, result.end_us
    boot = result.boot_start_us
    if boot is None:
        root = span(f"{result.function} [{result.policy.value}]", request, end)
    else:
        root = span(f"{result.function} [cold]", boot, end)
        span("cold boot", boot, request, root)
    setup = span("setup", request, request + result.setup_us, root)
    if result.policy is Policy.REAP and result.fetch_time_us > 0:
        span(
            "working-set fetch + UFFDIO_COPY",
            request + result.setup_us - result.fetch_time_us,
            request + result.setup_us,
            setup,
        )
    invoke_start = result.invoke_start_us
    span("invoke", invoke_start, invoke_start + result.invoke_us, root)
    loader = result.loader
    if loader is not None and loader.finished_us > 0:
        span(
            "concurrent loader", loader.started_us, loader.finished_us, root
        ).annotate(
            f"fetched {loader.bytes_read / 1e6:.1f} MB in "
            f"{loader.requests} requests"
        )
    return root


def render_trace(span: Span, indent: int = 0) -> str:
    """Indented text rendering of a span tree (a textual Zipkin)."""
    pad = "  " * indent
    lines = [f"{pad}{span.name}: {span.duration_us / 1000:.2f} ms"]
    for note in span.annotations:
        lines.append(f"{pad}  - {note}")
    for child in span.children:
        lines.append(render_trace(child, indent + 1))
    return "\n".join(lines)
