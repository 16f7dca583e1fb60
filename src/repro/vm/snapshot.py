"""Snapshot artefacts.

A Firecracker snapshot (paper §2.4) is a small *vmstate* file (vCPU
registers, device state) plus a *memory file* that is a full copy of
guest physical memory. Memory files are saved sparse — zero pages
become holes — which both shrinks storage (§7.2) and lets the
simulation distinguish zero from non-zero pages exactly the way
FaaSnap's zero-region scan does (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.host.vma import AddressSpace, FileBacking
from repro.storage.filestore import FileStore, StoredFile

#: Size of the vmstate file: device + vCPU state is tens of KB.
VMSTATE_PAGES = 16


@dataclass
class Snapshot:
    """An on-disk snapshot of a guest VM."""

    name: str
    memory_file: StoredFile
    vmstate_file: StoredFile

    @property
    def num_pages(self) -> int:
        return self.memory_file.num_pages

    def nonzero_pages(self) -> List[int]:
        """Sorted guest pages with non-zero contents — the scan
        FaaSnap performs after the record phase (§4.5)."""
        return self.memory_file.nonzero_pages()

    def page_value(self, page: int) -> int:
        return self.memory_file.page_value(page)


def create_snapshot(
    store: FileStore,
    name: str,
    num_pages: int,
    contents: Dict[int, int],
    sparse: bool = True,
) -> Snapshot:
    """Write a snapshot named ``name`` into ``store``.

    ``contents`` maps guest page -> content token; zero / missing
    pages become holes when ``sparse``. Snapshot creation happens in
    the record phase, off the measured critical path, so no simulated
    time is charged.
    """
    if 0 in contents.values():
        contents = {p: v for p, v in contents.items() if v != 0}
    memory = store.create(
        f"{name}.mem", num_pages, pages=contents, sparse=sparse
    )
    vmstate = store.create(f"{name}.vmstate", VMSTATE_PAGES)
    return Snapshot(name=name, memory_file=memory, vmstate_file=vmstate)


def capture_memory_contents(
    space: AddressSpace, base: Optional[Snapshot] = None
) -> Dict[int, int]:
    """Guest memory contents as observed through ``space``.

    Pages privately dirtied by the guest take their written values;
    other pages fall back to whatever backs them (the base snapshot's
    memory file, or zero for anonymous regions). This is what gets
    written to a *new* memory file when a snapshot is taken after an
    invocation (paper Figure 5: "create new snapshot").

    Iterates only pages that can be non-zero — each mapping's backing
    file entries, the space's shared image, and the dirtied pages — so
    capturing a 2 GB guest stays cheap. (``base`` is accepted for
    call-site symmetry; the mappings themselves carry everything
    needed.)
    """
    contents: Dict[int, int] = {}
    for vma in space.vmas():
        backing = vma.backing
        if not isinstance(backing, FileBacking):
            continue
        file_pages = backing.file.pages
        first = backing.file_start_page
        last = first + vma.npages
        base_guest = vma.start - first
        if len(file_pages) <= vma.npages:
            for file_page, value in file_pages.items():
                if first <= file_page < last and value != 0:
                    contents[base_guest + file_page] = value
        else:
            for file_page in range(first, last):
                value = file_pages.get(file_page, 0)
                if value != 0:
                    contents[base_guest + file_page] = value
    # The shared image is anonymous memory the guest already holds;
    # private (dirtied) pages override it and whatever backs them.
    for page, value in space.image.items():
        if value != 0:
            contents[page] = value
    for page, value in space.anon_contents.items():
        if value != 0:
            contents[page] = value
        else:
            contents.pop(page, None)
    return contents
