"""Host operating-system substrate.

Models the Linux-kernel mechanisms FaaSnap builds on, at the level of
detail the paper measures:

* :mod:`~repro.host.page_cache` — the host OS page cache, including
  *pending* (in-flight) reads so that a guest fault on a page the
  FaaSnap loader is currently fetching waits for that read instead of
  issuing a duplicate disk request (paper §6.5: "less harmful" major
  faults), and the insertion watch FaaSnap's host page recording
  scans (paper §4.4).
* :mod:`~repro.host.readahead` — on-demand fault readahead that pulls
  a window of neighbouring file pages into the cache (paper §4.4:
  readahead "predicts" future accesses).
* :mod:`~repro.host.vma` — mmap address-space semantics, including
  hierarchically overlapping ``MAP_FIXED`` mappings (paper §4.8).
* :mod:`~repro.host.fault` — the page-fault handler with the paper's
  measured cost classes: anonymous ≈2.5 us, page-cache minor ≈3.7 us,
  major = a blocking disk read (paper §3.3, Figure 2).
* :mod:`~repro.host.uffd` — userfaultfd delegation with user-level
  wake-up and context-switch overheads (REAP's mechanism, §2.5).
* :mod:`~repro.host.procfs` — RSS polling used by the recorder (§5).
"""

from repro.host.fault import (
    FAULTING_KINDS,
    FaultHandler,
    FaultKind,
    FaultRecord,
    FaultStats,
)
from repro.host.page_cache import PageCache
from repro.host.params import HostParams
from repro.host.procfs import Procfs
from repro.host.readahead import ReadaheadPolicy
from repro.host.uffd import UffdRegistration, UserfaultfdManager
from repro.host.vma import ANONYMOUS, AddressSpace, Backing, FileBacking, Vma

__all__ = [
    "ANONYMOUS",
    "AddressSpace",
    "Backing",
    "FAULTING_KINDS",
    "FaultHandler",
    "FaultKind",
    "FaultRecord",
    "FaultStats",
    "FileBacking",
    "HostParams",
    "PageCache",
    "Procfs",
    "ReadaheadPolicy",
    "UffdRegistration",
    "UserfaultfdManager",
    "Vma",
]
