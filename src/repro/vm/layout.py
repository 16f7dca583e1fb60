"""Guest physical memory layout.

Paper §6.1: each guest VM has 2 GB of memory — 524,288 4-KiB pages.
After boot and runtime initialisation the guest memory divides into
regions that behave differently under snapshotting:

* **boot** — kernel text/data and pages dirtied during boot. These
  are non-zero in the snapshot but rarely touched by invocations:
  the paper's *cold set* is "usually more than 100 MB in size, and
  most of them are pages used in the guest booting process" (§4.8).
* **runtime** — the Python interpreter, Flask server and imported
  libraries. Partially touched on every invocation; how much of it
  an invocation touches varies with input and execution flow.
* **data** — long-lived function data (read-list's 512 MB list,
  recognition's ResNet weights) resident when the snapshot is taken.
* **heap** — free guest physical pages that anonymous allocations
  draw from during an invocation.

The regions are contiguous spans; workload generators address pages
by (region, offset) through this layout so traces, snapshots and
mapping plans all agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

#: 2 GB guest / 4 KiB pages (paper §6.1).
DEFAULT_GUEST_PAGES = 524_288

#: Default boot-region size: ~128 MB of boot-dirtied pages (§4.8
#: notes the cold set is usually >100 MB, mostly boot pages).
DEFAULT_BOOT_PAGES = 32_768


@dataclass(frozen=True)
class GuestLayout:
    """Region map of guest physical memory, in pages."""

    total_pages: int = DEFAULT_GUEST_PAGES
    boot_pages: int = DEFAULT_BOOT_PAGES
    runtime_pages: int = 16_384
    data_pages: int = 0

    def __post_init__(self) -> None:
        if min(self.total_pages, self.boot_pages, self.runtime_pages) <= 0:
            raise ValueError("layout regions must be positive")
        if self.data_pages < 0:
            raise ValueError("data_pages must be >= 0")
        if self.heap_start >= self.total_pages:
            raise ValueError(
                "layout regions exceed guest memory: "
                f"{self.heap_start} >= {self.total_pages}"
            )
        # Trace generators address hundreds of thousands of pages per
        # run through ``_page``; cache the bounds table once (the
        # dataclass is frozen, so it can never go stale).
        object.__setattr__(
            self,
            "_bounds",
            {
                "boot": (self.boot_start, self.boot_pages),
                "runtime": (self.runtime_start, self.runtime_pages),
                "data": (self.data_start, self.data_pages),
                "heap": (self.heap_start, self.heap_pages),
            },
        )

    # -- region bounds -------------------------------------------------

    @property
    def boot_start(self) -> int:
        return 0

    @property
    def runtime_start(self) -> int:
        return self.boot_pages

    @property
    def data_start(self) -> int:
        return self.runtime_start + self.runtime_pages

    @property
    def heap_start(self) -> int:
        return self.data_start + self.data_pages

    @property
    def heap_pages(self) -> int:
        return self.total_pages - self.heap_start

    # -- addressing ------------------------------------------------------

    def boot_page(self, offset: int) -> int:
        return self._page("boot", offset)

    def runtime_page(self, offset: int) -> int:
        return self._page("runtime", offset)

    def data_page(self, offset: int) -> int:
        return self._page("data", offset)

    def _page(self, region: str, offset: int) -> int:
        start, npages = self._bounds[region]
        if not 0 <= offset < npages:
            raise ValueError(
                f"offset {offset} outside {region} region of {npages} pages"
            )
        return start + offset

    def region_pages(self, region: str, offsets: Sequence[int]) -> List[int]:
        """The guest pages of ``offsets`` within ``region``, in order:
        one :meth:`_page` per offset, with the bounds checked once."""
        start, npages = self._bounds[region]
        if offsets:
            for offset in (min(offsets), max(offsets)):
                if not 0 <= offset < npages:
                    raise ValueError(
                        f"offset {offset} outside {region} region of "
                        f"{npages} pages"
                    )
        return list(map(start.__add__, offsets))

    def region_of(self, page: int) -> str:
        """Name of the region containing ``page``."""
        if not 0 <= page < self.total_pages:
            raise ValueError(f"page {page} outside guest memory")
        for region, (start, npages) in self._bounds.items():
            if start <= page < start + npages:
                return region
        raise AssertionError("regions must cover the address space")
