"""Host timing parameters, calibrated to the paper's Section 3.

The paper measures (Figure 2, §3.3, on an AWS c5d.metal host):

* warm anonymous page faults average 2.5 us, >90% under 4 us;
* page-cache minor faults average 3.7 us, >90% under 8 us;
* major faults read from disk and mostly land in 32-512 us;
* userfaultfd adds "several microseconds" of user-level overhead per
  fault, plus context switches that stall the vCPU (kvm_vcpu_block);
* the readahead window fetches neighbouring pages on each major fault.

Everything here is a knob: the ablation benchmarks override these to
probe sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class HostParams:
    """Timing and policy constants of the simulated host kernel."""

    #: Anonymous (zero-fill) fault service time, microseconds.
    anon_fault_us: float = 2.5
    #: File-backed minor fault (page already in the page cache).
    minor_fault_us: float = 3.7
    #: Fault on a page whose host PTE already exists (e.g. installed
    #: by UFFDIO_COPY): only the KVM EPT fixup remains. Paper: "less
    #: than 4 microseconds".
    present_fault_us: float = 3.0
    #: Kernel entry/exit and bookkeeping added to a major fault on top
    #: of the device read itself.
    major_fault_overhead_us: float = 4.0
    #: Extra vCPU stall on any fault that blocks on I/O: after the
    #: page arrives, KVM waits for the guest CPU to be runnable again
    #: (the paper's kvm_vcpu_block component, §6.4 / Table 3).
    vcpu_block_overhead_us: float = 30.0
    #: Copy cost folded into a write fault on a clean file-backed page
    #: (MAP_PRIVATE copy-on-write).
    cow_copy_us: float = 1.0
    #: Base readahead window on a major fault (random access).
    readahead_pages: int = 8
    #: Ceiling the window ramps to for sequential fault streams.
    readahead_max_pages: int = 64
    #: userfaultfd: time to wake the user-level handler thread.
    uffd_wakeup_us: float = 4.0
    #: userfaultfd: UFFDIO_COPY cost per installed page.
    uffd_copy_us: float = 1.2
    #: userfaultfd: extra vCPU stall per user-handled fault caused by
    #: context switching before the guest can resume (paper §3.3:
    #: "the guest cannot immediately resume after a page fault is
    #: handled", and §6.4 kvm_vcpu_block waiting).
    uffd_resume_stall_us: float = 6.0
    #: mmap() syscall cost per mapped region (paper §4.6: mapping
    #: >1000 regions is "not negligible").
    mmap_region_us: float = 2.0
    #: mincore() cost: fixed syscall overhead plus per-page scan.
    mincore_base_us: float = 2.0
    mincore_per_page_us: float = 0.002
    #: procfs RSS poll cost and interval used by the recorder.
    procfs_poll_us: float = 3.0
    #: Host cores available to guest vCPUs (c5d.metal: 96 vCPUs; each
    #: guest uses 2 vCPUs in §6, so ~48 guests run unqueued).
    cpu_slots: int = 48
    #: Deterministic per-fault service-time jitter: each fault's CPU
    #: cost is scaled by up to +/- this fraction, keyed by a hash of
    #: (page, kind). Zero (the default) keeps costs exact for unit
    #: tests; the Figure 2 experiment enables it so the handling-time
    #: histogram spreads over buckets the way real measurements do.
    fault_jitter_fraction: float = 0.0

    def with_overrides(self, **overrides: Any) -> "HostParams":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
