"""Working-set representations.

Two recorders, two shapes:

* :class:`WorkingSetGroups` — FaaSnap's working set: every page the
  host cached during the record invocation (faulted *or* readahead),
  partitioned into groups of ~N pages by the order mincore scans saw
  them (§4.3, §4.4). N = 1024 in the paper.
* :class:`ReapWorkingSet` — REAP's working set: exactly the guest
  pages that faulted, in fault order (§2.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

#: The paper's group size (§4.3: "we find N = 1024 works well").
DEFAULT_GROUP_PAGES = 1024


@dataclass
class WorkingSetGroups:
    """FaaSnap working set: guest page -> group number (1-based)."""

    group_of: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_batches(
        cls,
        batches: Sequence[Sequence[int]],
        group_pages: int = DEFAULT_GROUP_PAGES,
    ) -> "WorkingSetGroups":
        """Build groups from successive mincore scan results.

        Each batch holds the pages that became resident since the
        previous scan; oversized batches (e.g. a burst of readahead)
        are split into consecutive groups of ``group_pages``.
        """
        if group_pages < 1:
            raise ValueError("group_pages must be >= 1")
        group_of: Dict[int, int] = {}
        group = 0
        for batch in batches:
            fresh: List[int] = []
            batch_seen = set()
            for page in batch:
                if page not in group_of and page not in batch_seen:
                    batch_seen.add(page)
                    fresh.append(page)
            for start in range(0, len(fresh), group_pages):
                group += 1
                for page in fresh[start : start + group_pages]:
                    group_of[page] = group
        return cls(group_of=group_of)

    def __len__(self) -> int:
        return len(self.group_of)

    def __contains__(self, page: int) -> bool:
        return page in self.group_of

    @property
    def pages(self) -> List[int]:
        """All working-set pages in ascending address order."""
        return sorted(self.group_of)

    @property
    def num_groups(self) -> int:
        return max(self.group_of.values()) if self.group_of else 0

    def group(self, page: int) -> int:
        """Group number of ``page`` (KeyError if not in the set)."""
        return self.group_of[page]

    def pages_of_group(self, group: int) -> List[int]:
        """Pages of one group in address order."""
        return sorted(p for p, g in self.group_of.items() if g == group)

    def size_mb(self) -> float:
        return len(self.group_of) * 4096 / 1e6


@dataclass
class ReapWorkingSet:
    """REAP working set: faulting guest pages in fault order."""

    pages_in_fault_order: List[int] = field(default_factory=list)

    @classmethod
    def from_fault_pages(cls, pages: Iterable[int]) -> "ReapWorkingSet":
        """Deduplicate a fault stream, keeping first-fault order."""
        return cls(pages_in_fault_order=list(dict.fromkeys(pages)))

    def __len__(self) -> int:
        return len(self.pages_in_fault_order)

    def __contains__(self, page: int) -> bool:
        return page in self._page_set

    @property
    def _page_set(self) -> frozenset:
        cached = getattr(self, "_cached_page_set", None)
        if cached is None or len(cached) != len(self.pages_in_fault_order):
            cached = frozenset(self.pages_in_fault_order)
            object.__setattr__(self, "_cached_page_set", cached)
        return cached

    def size_mb(self) -> float:
        return len(self.pages_in_fault_order) * 4096 / 1e6
