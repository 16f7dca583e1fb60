"""Workload model: profiles, inputs, and trace generation.

A :class:`WorkloadProfile` describes a function's memory behaviour;
:func:`generate_trace` turns a profile plus an :class:`InputSpec` into
a deterministic guest access trace, written straight into the
vCPU's run-loop columns (:class:`~repro.vm.vcpu.TraceColumns`).
:func:`generate_trace_pair`
produces the record-phase and test-phase traces together so the test
phase can reuse heap pages the record phase freed, exactly like a
guest kernel allocator would (§4.5's released set).

Page placement
--------------
Guest-physical pages of a long-running runtime are heavily fragmented
— objects allocated over boot and import time interleave — so the
pages an invocation touches are *scattered* through a wider span of
guest memory. The profile's ``spread_factor`` controls that density,
which in turn controls how effective the kernel's readahead is for
stock Firecracker (the paper's observation that on-demand paging
makes "small and scattered" disk reads, §2.4).

Access order
------------
Core pages are visited in a fixed pseudo-random order (the runtime's
startup path), variable pages in a content-seeded order, data pages
sequentially, anonymous pages in allocation order. Compute time is
spread across the trace with a startup slice, a processing slice and
a tail slice so that page faults interleave with computation the way
the loader race in concurrent paging requires (§4.2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.vm.layout import DEFAULT_BOOT_PAGES, DEFAULT_GUEST_PAGES, GuestLayout
from repro.vm.vcpu import GuestAccess, TraceColumns

#: Interleave granularity for the processing phase, in pages.
_CHUNK_PAGES = 64

#: Fraction of compute spent before (startup), during (processing),
#: and after (tail) the memory accesses.
_STARTUP_FRACTION = 0.15
_TAIL_FRACTION = 0.25


@dataclass(frozen=True)
class InputSpec:
    """One function input.

    ``content_id`` seeds *which* content-dependent pages get touched
    (two inputs of identical size still touch different page subsets,
    the paper's image-diff scenario). ``size_ratio`` scales the
    workload relative to the nominal input A (the paper's Figure 8
    sweeps this from 1/4 to 4).
    """

    content_id: int
    size_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.size_ratio <= 0:
            raise ValueError("size_ratio must be positive")


#: The paper's canonical inputs (Table 2): input A is the nominal
#: input; input B differs in both content and effective size.
INPUT_A = InputSpec(content_id=1, size_ratio=1.0)


@dataclass(frozen=True)
class WorkloadProfile:
    """Static memory/compute description of one benchmark function."""

    name: str
    description: str
    #: Runtime pages touched by every invocation, input-independent.
    core_pages: int
    #: Input-dependent pages touched at ratio 1.0 ...
    var_base_pages: int
    #: ... sampled from this larger pool of library/data pages.
    var_pool_pages: int
    #: Long-lived data region (pages), read sequentially ...
    data_pages: int = 0
    #: ... this many pages of it per invocation.
    data_read_pages: int = 0
    #: Fresh heap pages written at ratio 1.0.
    anon_base_pages: int = 0
    #: Fraction of them freed when the invocation ends.
    anon_free_fraction: float = 0.9
    #: Compute (think) time at ratio 1.0, microseconds.
    compute_base_us: float = 100_000.0
    #: Scaling exponents versus size_ratio.
    var_exp: float = 1.0
    anon_exp: float = 1.0
    compute_exp: float = 1.0
    #: Core+pool pages scatter over span = (core+pool) * spread_factor.
    spread_factor: float = 6.0
    #: Effective workload scale of the paper's input B (Table 2).
    input_b_ratio: float = 1.0
    #: Cold-start runtime initialisation (start interpreter, install
    #: function code, import libraries) after the kernel boots —
    #: "seconds to minutes" (§2.1). Used by cold-boot paths.
    runtime_init_us: float = 2_000_000.0
    #: Table 2 working-set targets, for calibration tests (MB).
    ws_a_mb: float = 0.0
    ws_b_mb: float = 0.0
    boot_pages: int = DEFAULT_BOOT_PAGES
    total_pages: int = DEFAULT_GUEST_PAGES

    def __post_init__(self) -> None:
        if self.core_pages <= 0:
            raise ValueError("core_pages must be positive")
        if self.var_base_pages > self.var_pool_pages:
            raise ValueError("var_base_pages cannot exceed the pool")
        if not 0.0 <= self.anon_free_fraction <= 1.0:
            raise ValueError("anon_free_fraction must be in [0, 1]")
        if self.data_read_pages > self.data_pages:
            raise ValueError("cannot read more data pages than exist")
        if self.compute_base_us < 0:
            raise ValueError("compute_base_us must be non-negative")

    # -- derived sizes -------------------------------------------------

    @property
    def runtime_span_pages(self) -> int:
        """Span of the runtime region the core+pool pages scatter in."""
        populated = self.core_pages + self.var_pool_pages
        return max(populated, int(math.ceil(populated * self.spread_factor)))

    def var_pages_at(self, ratio: float) -> int:
        if self.var_base_pages == 0:
            return 0
        return min(
            self.var_pool_pages,
            max(0, int(round(self.var_base_pages * ratio**self.var_exp))),
        )

    def anon_pages_at(self, ratio: float) -> int:
        if self.anon_base_pages == 0:
            return 0
        return max(1, int(round(self.anon_base_pages * ratio**self.anon_exp)))

    def compute_us_at(self, ratio: float) -> float:
        return self.compute_base_us * ratio**self.compute_exp

    def input_b(self) -> InputSpec:
        """The paper's input B: different content, Table 2's size."""
        return InputSpec(content_id=2, size_ratio=self.input_b_ratio)


@dataclass
class WorkloadTrace:
    """One invocation's access trace plus its bookkeeping."""

    profile: WorkloadProfile
    input: InputSpec
    #: The accesses as the vCPU's run-loop columns, built by synthesis
    #: and dying with the trace.
    columns: TraceColumns = field(repr=False)
    #: Guest pages freed when the invocation finishes (released set).
    freed_pages: List[int]
    #: Heap allocation high-water mark, in heap-region offsets.
    heap_bump: int
    #: Final compute after the last access, microseconds.
    tail_think_us: float
    #: The profile's start-up prefix, shared with every trace derived
    #: from this one (see :class:`_Prefix`).
    _prefix: "_Prefix" = field(repr=False, compare=False)
    #: Memo of traces derived *from* this one (``prior=self``), keyed
    #: by ``(profile, input)`` — generation is deterministic, so the
    #: derived trace is a pure function of those. Living on the prior
    #: keeps the memo's lifetime tied to it.
    _derived: Dict[Any, "WorkloadTrace"] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def accesses(self) -> Sequence[GuestAccess]:
        """The trace as :class:`GuestAccess` objects, built on first
        use (tests and analyses read them; the simulator reads
        :attr:`columns`)."""
        return self.columns.accesses

    @property
    def touched_pages(self) -> Set[int]:
        return set(self.columns.pages)

    @property
    def working_set_pages(self) -> int:
        return len(self.touched_pages)

    @property
    def working_set_mb(self) -> float:
        return self.working_set_pages * 4096 / 1e6

    @property
    def total_think_us(self) -> float:
        return sum(self.columns.thinks) + self.tail_think_us


@dataclass
class TracePair:
    """Record-phase and test-phase traces with shared heap state."""

    record: WorkloadTrace
    test: WorkloadTrace


def build_layout(profile: WorkloadProfile) -> GuestLayout:
    """The guest memory layout implied by a profile."""
    return GuestLayout(
        total_pages=profile.total_pages,
        boot_pages=profile.boot_pages,
        runtime_pages=profile.runtime_span_pages,
        data_pages=profile.data_pages,
    )


def _rng(*seed_parts: object) -> random.Random:
    """Deterministic RNG from stable string keys (independent of
    PYTHONHASHSEED)."""
    return random.Random("|".join(str(part) for part in seed_parts))


def content_token(page: int, content_id: int) -> int:
    """Nonzero content token for a write of input ``content_id`` to
    guest ``page``."""
    return (((page + 1) * 1_000_003 + content_id * 7_919) & 0x7FFFFFFF) | 1


#: Runtime pages cluster: library extents are contiguous runs with
#: small holes, and the clusters themselves scatter widely through
#: guest-physical memory (boot-time allocation fragments them).
_CLUSTER_SLOTS = 16
_CLUSTER_DENSITY = 0.875


def _placement(profile: WorkloadProfile) -> Dict[str, List[int]]:
    """Scatter core and pool pages over the runtime span in clusters.

    Deterministic per function name; the same placement is used for
    snapshot synthesis and trace generation so they agree on which
    guest pages hold runtime content. Pages sit in ~16-page clusters
    at ~75% density (a mapped library extent with a few untouched
    pages), and clusters scatter uniformly over the span — so
    readahead helps a little within a cluster but cross-cluster reads
    stay scattered, and loading-set merging absorbs intra-cluster
    holes without chaining distant clusters together (§4.6's "small
    amount of additional data").
    """
    span = profile.runtime_span_pages
    populated = profile.core_pages + profile.var_pool_pages
    pages_per_cluster = max(1, int(_CLUSTER_SLOTS * _CLUSTER_DENSITY))
    n_clusters = int(math.ceil(populated / pages_per_cluster))
    n_slots = span // _CLUSTER_SLOTS
    rng = _rng("placement", profile.name)

    offsets: List[int] = []
    if n_clusters >= n_slots:
        # Degenerate (spread close to 1): fall back to a dense prefix.
        offsets = list(range(populated))
    else:
        # Stratified placement: clusters spread evenly over the span
        # with bounded jitter, like library extents laid out over a
        # long-running address space. Bounded jitter keeps distinct
        # clusters farther apart than the loading-set merge gap, so
        # merging absorbs intra-cluster holes without chaining
        # unrelated clusters together.
        stride = n_slots / n_clusters
        jitter = max(0, int(stride * 0.2))
        remaining = populated
        for index in range(n_clusters):
            base = int(index * stride)
            if jitter:
                base = min(n_slots - 1, base + rng.randint(0, jitter))
            take = min(pages_per_cluster, remaining)
            inside = rng.sample(range(_CLUSTER_SLOTS), take)
            offsets.extend(base * _CLUSTER_SLOTS + o for o in inside)
            remaining -= take
            if remaining == 0:
                break

    rng.shuffle(offsets)
    return {
        "core": sorted(offsets[: profile.core_pages]),
        "pool": sorted(offsets[profile.core_pages :]),
    }


def runtime_resident_offsets(profile: WorkloadProfile) -> List[int]:
    """All populated (non-zero) offsets within the runtime span."""
    placement = _placement(profile)
    return sorted(placement["core"] + placement["pool"])


_CLEAN_CONTENTS_CACHE: Dict[WorkloadProfile, Dict[int, int]] = {}


def clean_snapshot_contents(profile: WorkloadProfile) -> Dict[int, int]:
    """Guest memory contents of the *clean* snapshot: the VM booted,
    runtime initialised and data loaded, but no invocation served yet
    (paper Figure 5, "restore clean snapshot").

    Non-zero pages: the whole boot region, every populated runtime
    page (core + pool: the interpreter and its imported libraries),
    and the data region. The heap is all zeros. Deterministic per
    profile, so the construction is memoised and every call returns
    the memo itself: every clean memory file shares it as its page
    map, so callers must never mutate it.
    """
    cached = _CLEAN_CONTENTS_CACHE.get(profile)
    if cached is not None:
        return cached
    layout = build_layout(profile)
    contents: Dict[int, int] = {}
    for offset in range(profile.boot_pages):
        page = layout.boot_page(offset)
        contents[page] = content_token(page, 0)
    for offset in runtime_resident_offsets(profile):
        page = layout.runtime_page(offset)
        contents[page] = content_token(page, 0)
    for offset in range(profile.data_pages):
        page = layout.data_page(offset)
        contents[page] = content_token(page, 0)
    _CLEAN_CONTENTS_CACHE[profile] = contents
    return contents


def _interleave_chunks(
    rng: random.Random, streams: Sequence[Tuple[List[int], Optional[List[int]]]]
) -> Tuple[List[int], List[bool], List[Optional[int]]]:
    """Round-robin merge of access streams in chunks, modelling a
    function that alternates between reading libraries, reading data
    and writing buffers.

    Each stream is its pages and, for a stream of stores, their
    values (``None`` for a stream of reads); returns the merged page,
    write-flag and value columns."""
    pages: List[int] = []
    writes: List[bool] = []
    values: List[Optional[int]] = []
    cursors = [0] * len(streams)
    active = [i for i, (stream, _) in enumerate(streams) if stream]
    while active:
        index = active[rng.randrange(len(active))] if len(active) > 1 else active[0]
        stream, stored = streams[index]
        cursor = cursors[index]
        end = min(cursor + _CHUNK_PAGES, len(stream))
        pages += stream[cursor:end]
        if stored is None:
            writes += repeat(False, end - cursor)
            values += repeat(None, end - cursor)
        else:
            writes += repeat(True, end - cursor)
            values += stored[cursor:end]
        cursors[index] = end
        if end >= len(stream):
            active.remove(index)
    return pages, writes, values


@dataclass(frozen=True)
class _Prefix:
    """What every trace of one profile shares: the guest pages of its
    core accesses in start-up order, and of its variable-page pool.

    A record trace computes it and every trace derived from that
    record reuses it, so it dies with the trace memo."""

    core_pages: List[int]
    pool_pages: List[int]

    @staticmethod
    def of(profile: WorkloadProfile, layout: GuestLayout) -> "_Prefix":
        placement = _placement(profile)
        core_order = placement["core"]
        _rng("core-order", profile.name).shuffle(core_order)
        return _Prefix(
            core_pages=layout.region_pages("runtime", core_order),
            pool_pages=layout.region_pages("runtime", placement["pool"]),
        )


#: Memo of prior-less traces keyed by ``(profile, input)``. Trace
#: generation is deterministic and traces are treated as immutable by
#: every consumer, so repeated experiment cells share one object
#: instead of regenerating (and the key space — distinct workload ×
#: input pairs — is small).
_TRACE_CACHE: Dict[Tuple[WorkloadProfile, InputSpec], WorkloadTrace] = {}


def generate_trace(
    profile: WorkloadProfile,
    input_spec: InputSpec,
    prior: Optional[WorkloadTrace] = None,
) -> WorkloadTrace:
    """Build (or recall) the access trace of one invocation.

    ``prior`` is the previous invocation on the same VM image (the
    record phase): its freed heap pages are reused LIFO before fresh
    heap pages are drawn, and its heap high-water mark is where the
    bump allocator continues.
    """
    cache = _TRACE_CACHE if prior is None else prior._derived
    key = (profile, input_spec)
    trace = cache.get(key)
    if trace is None:
        trace = _generate_trace(profile, input_spec, prior)
        cache[key] = trace
    return trace


def _generate_trace(
    profile: WorkloadProfile,
    input_spec: InputSpec,
    prior: Optional[WorkloadTrace],
) -> WorkloadTrace:
    layout = build_layout(profile)
    ratio = input_spec.size_ratio
    content_id = input_spec.content_id
    if prior is not None and prior.profile == profile:
        prefix = prior._prefix
    else:
        prefix = _Prefix.of(profile, layout)

    # 1. Core pages: fixed startup order, input independent.
    core_pages = prefix.core_pages

    # 2. Variable pages: content-seeded sample of the pool. Sampling
    # the pool's pages draws the same positions as sampling its
    # offsets would.
    n_var = profile.var_pages_at(ratio)
    var_rng = _rng("var", profile.name, content_id, ratio)
    var_pages = var_rng.sample(prefix.pool_pages, n_var) if n_var else []

    # 3. Data pages: sequential scan (read-list, model weights).
    data_pages = layout.region_pages("data", range(profile.data_read_pages))

    # 4. Anonymous heap: reuse freed pages first, then bump-allocate.
    # Freed ranges coalesce in the guest buddy allocator and are
    # handed back in ascending address order on the next allocation.
    heap_pages = layout.heap_pages
    n_anon = profile.anon_pages_at(ratio) if profile.anon_base_pages else 0
    n_anon = min(n_anon, heap_pages)
    anon_pages = sorted(prior.freed_pages)[:n_anon] if prior else []
    bump = prior.heap_bump if prior else 0
    fresh = max(0, min(n_anon - len(anon_pages), heap_pages - bump))
    anon_pages += layout.region_pages("heap", range(bump, bump + fresh))
    bump += fresh
    anon_values = list(map(content_token, anon_pages, repeat(content_id)))

    # Assemble: startup core pages, then interleaved processing.
    mix_rng = _rng("interleave", profile.name, content_id, ratio)
    pages, writes, values = _interleave_chunks(
        mix_rng,
        [(var_pages, None), (data_pages, None), (anon_pages, anon_values)],
    )
    n_core = len(core_pages)
    pages[:0] = core_pages
    writes[:0] = repeat(False, n_core)
    values[:0] = repeat(None, n_core)

    # Distribute compute over the trace.
    compute = profile.compute_us_at(ratio)
    thinks = _spread_think_time(len(pages), n_core, compute)
    tail = compute * _TAIL_FRACTION

    # Free a suffix of this invocation's allocations (transient
    # buffers die young; long-lived results survive into the
    # snapshot).
    n_keep = int(round(len(anon_pages) * (1.0 - profile.anon_free_fraction)))
    freed = anon_pages[n_keep:]

    return WorkloadTrace(
        profile=profile,
        input=input_spec,
        columns=TraceColumns(pages, writes, values, thinks),
        freed_pages=freed,
        heap_bump=bump,
        tail_think_us=tail,
        _prefix=prefix,
    )


def _spread_think_time(
    n_accesses: int, n_startup: int, compute_us: float
) -> List[float]:
    """The per-access think-time column: a startup slice across the
    core accesses and a processing slice across the rest (the tail
    slice is carried separately on the trace)."""
    if not n_accesses:
        return []
    startup_budget = compute_us * _STARTUP_FRACTION
    processing_budget = compute_us * (1.0 - _STARTUP_FRACTION - _TAIL_FRACTION)
    n_processing = n_accesses - n_startup
    startup_each = startup_budget / n_startup if n_startup else 0.0
    processing_each = (
        processing_budget / n_processing if n_processing else 0.0
    )
    thinks = [startup_each] * n_startup + [processing_each] * n_processing
    if n_processing == 0:
        thinks[-1] = startup_each + processing_budget
    return thinks


def generate_trace_pair(
    profile: WorkloadProfile,
    record_input: InputSpec,
    test_input: InputSpec,
) -> TracePair:
    """Record-phase and test-phase traces with heap continuity."""
    record = generate_trace(profile, record_input)
    test = generate_trace(profile, test_input, prior=record)
    return TracePair(record=record, test=test)
