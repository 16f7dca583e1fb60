"""Block storage substrate.

The paper's results are driven by one storage fact: *small scattered
reads are slow, large sequential reads are fast*. This package models
that with a queued block device (:class:`BlockDevice`): each request
pays a per-request access latency (reduced when it continues the
previous request sequentially), transfers bytes through a shared
bandwidth channel, and competes for a bounded number of queue-depth
slots. Device presets match the paper's measured hardware: a local
NVMe SSD (1589 MB/s, 285k IOPS) and a remote EBS io2 volume (1 GB/s,
64k IOPS, §6.7).

:class:`FileStore` lays files out contiguously on a device so that
sequential file reads become sequential device reads, and supports
sparse files (zero pages are holes that cost no I/O) as used for
snapshot memory files (§7.2).
"""

from repro.storage.device import BlockDevice, DeviceSpec, DeviceStats
from repro.storage.filestore import FileStore, PageMap, StoredFile
from repro.storage.presets import EBS_IO2, NVME_LOCAL

__all__ = [
    "BlockDevice",
    "DeviceSpec",
    "DeviceStats",
    "EBS_IO2",
    "FileStore",
    "NVME_LOCAL",
    "PageMap",
    "StoredFile",
]
