"""Hierarchical snapshot staging (paper §7.2).

Snapshots of functions far down the invocation-frequency distribution
belong on the cheapest storage — S3-class object stores. Serving page
faults from an object store directly is hopeless (millisecond
first-byte latency), so the paper sketches a hierarchical scheme:
fetch the snapshot bundle to a faster tier when the function becomes
active, then serve from there.

:class:`SnapshotStager` implements that: it streams a snapshot's
files from their (slow) home device to a local store as one big
sequential read per file — paying object-store bandwidth once — and
returns artefacts that point at the local copies, ready for any
restore policy. Sparse files only transfer their non-zero pages.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.core.restore import RecordArtifacts
from repro.sim import Environment, Event
from repro.storage.filestore import FileStore, StoredFile
from repro.vm.snapshot import Snapshot

#: Pages per staging read request.
_STAGE_CHUNK_PAGES = 512


@dataclass
class StagingStats:
    """Accounting for capacity planning and cost estimates."""

    files_staged: int = 0
    bytes_transferred: int = 0
    staging_time_us: float = 0.0


class SnapshotStager:
    """Copies snapshot bundles from a slow tier to a local store."""

    def __init__(self, env: Environment, local_store: FileStore):
        self.env = env
        self.local_store = local_store
        self.stats = StagingStats()
        self._staged: Dict[str, StoredFile] = {}

    def is_staged(self, file_name: str) -> bool:
        return file_name in self._staged

    def stage_file(
        self, remote: StoredFile
    ) -> Generator[Event, Any, StoredFile]:
        """Process helper: copy ``remote`` to the local store.

        Reads the remote file sequentially (holes free), creates the
        local twin sharing the remote file's page map (maps are
        immutable), and memoizes it so a second staging request is
        free.
        """
        cached = self._staged.get(remote.name)
        if cached is not None:
            return cached
        started = self.env.now
        before = remote.device.stats.bytes_read
        for start in range(0, remote.num_pages, _STAGE_CHUNK_PAGES):
            npages = min(_STAGE_CHUNK_PAGES, remote.num_pages - start)
            yield from remote.read(start, npages)
        local = self.local_store.create(
            f"staged.{remote.name}",
            remote.num_pages,
            pages=remote.pages,
            sparse=remote.sparse,
        )
        self._staged[remote.name] = local
        self.stats.files_staged += 1
        self.stats.bytes_transferred += remote.device.stats.bytes_read - before
        self.stats.staging_time_us += self.env.now - started
        return local

    def stage_artifacts(
        self, artifacts: RecordArtifacts
    ) -> Generator[Event, Any, RecordArtifacts]:
        """Process helper: stage a whole record-phase bundle.

        Returns a copy of ``artifacts`` whose snapshot, loading-set
        and working-set files live on the local store; the working-set
        metadata (groups, regions, offsets) carries over unchanged.
        """
        warm = artifacts.warm_snapshot
        local_memory = yield from self.stage_file(warm.memory_file)
        local_vmstate = yield from self.stage_file(warm.vmstate_file)
        local_warm = Snapshot(
            name=f"staged.{warm.name}",
            memory_file=local_memory,
            vmstate_file=local_vmstate,
        )
        local_loading: Optional[StoredFile] = None
        if artifacts.loading_file is not None:
            local_loading = yield from self.stage_file(artifacts.loading_file)
        local_ws: Optional[StoredFile] = None
        if artifacts.reap_ws_file is not None:
            local_ws = yield from self.stage_file(artifacts.reap_ws_file)
        return dataclasses.replace(
            artifacts,
            warm_snapshot=local_warm,
            loading_file=local_loading,
            reap_ws_file=local_ws,
        )
