"""Snapshot restore policies.

The four systems the paper compares (§3.1, §6.1) plus the two
intermediate ablation steps of Figure 9 (§6.5).
"""

from __future__ import annotations

import enum
from typing import List


class Policy(enum.Enum):
    """How a function invocation's guest memory is provided."""

    #: A warm VM cached in memory that served a previous invocation.
    WARM = "warm"
    #: Stock Firecracker snapshot restore: whole-file mapping,
    #: on-demand paging from disk.
    FIRECRACKER = "firecracker"
    #: Firecracker with the snapshot memory file preloaded into the
    #: page cache — impractical, used as a reference (§3.1).
    CACHED = "cached"
    #: REAP (ASPLOS '21): blocking prefetch of the recorded working
    #: set via userfaultfd; out-of-WS faults handled at user level.
    REAP = "reap"
    #: Full FaaSnap: concurrent paging + working-set groups + host
    #: page recording + per-region mapping + loading-set file.
    FAASNAP = "faasnap"
    #: Ablation (Fig. 9 step 2): concurrent paging only — stock
    #: whole-file mapping, loader prefetches the working set from the
    #: memory file in address order.
    FAASNAP_CONCURRENT = "faasnap-concurrent"
    #: Ablation (Fig. 9 step 3): + per-region mapping and working-set
    #: groups, but no compact loading-set file — the loader reads the
    #: working set from the memory file in group order.
    FAASNAP_PER_REGION = "faasnap-per-region"

    @property
    def is_faasnap_family(self) -> bool:
        """Policies that record via mincore and sanitize freed pages."""
        return self in (
            Policy.FAASNAP,
            Policy.FAASNAP_CONCURRENT,
            Policy.FAASNAP_PER_REGION,
        )

    @property
    def uses_loader(self) -> bool:
        """Policies with a concurrent daemon loader thread."""
        return self.is_faasnap_family

    @property
    def uses_loading_set_file(self) -> bool:
        return self is Policy.FAASNAP

    @property
    def needs_record_phase(self) -> bool:
        """Policies whose test phase consumes record-phase artefacts
        beyond the warm snapshot itself."""
        return self is Policy.REAP or self.is_faasnap_family


#: The comparison set of the paper's main figures (6, 7, 11).
MAIN_POLICIES: List[Policy] = [
    Policy.FIRECRACKER,
    Policy.REAP,
    Policy.FAASNAP,
    Policy.CACHED,
]

#: The Figure 9 ablation ladder.
ABLATION_POLICIES: List[Policy] = [
    Policy.FIRECRACKER,
    Policy.FAASNAP_CONCURRENT,
    Policy.FAASNAP_PER_REGION,
    Policy.FAASNAP,
]
