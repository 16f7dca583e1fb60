"""Device presets calibrated to the paper's measurement platform.

Section 6.1: the local disk is an NVMe SSD with measured maximum
throughput of 1589 MB/s and 285,000 IOPS. Section 6.7: the remote
volume is an AWS EBS io2 volume with 64K maximum IOPS and 1 GB/s
maximum throughput, with the added latency of a network round trip.

Random-access latencies are not reported directly in the paper; they
are set so the simulated page-fault-time distribution reproduces the
paper's Figure 2 buckets (major faults mostly in the 32-512 us range
on NVMe, and proportionally slower on EBS).
"""

from __future__ import annotations

from repro.storage.device import DeviceSpec

#: Local NVMe SSD of the AWS c5d.metal host (paper §6.1).
NVME_LOCAL = DeviceSpec(
    name="nvme-local",
    random_latency_us=80.0,
    sequential_latency_us=4.0,
    bandwidth_bytes_per_us=1589.0,  # 1589 MB/s
    iops=285_000.0,
    queue_depth=16,
)

#: Remote AWS EBS io2 volume (paper §6.7).
EBS_IO2 = DeviceSpec(
    name="ebs-io2",
    random_latency_us=280.0,
    sequential_latency_us=60.0,
    bandwidth_bytes_per_us=1000.0,  # 1 GB/s
    iops=64_000.0,
    queue_depth=16,
)

#: S3-class object storage: the paper's "slowest tier" for snapshots
#: of functions far down the invocation-frequency distribution
#: (§7.2). Millisecond first-byte latency, decent streaming
#: bandwidth, low request rate.
S3_OBJECT = DeviceSpec(
    name="s3-object",
    random_latency_us=15_000.0,
    sequential_latency_us=2_000.0,
    bandwidth_bytes_per_us=400.0,  # ~400 MB/s streaming
    iops=3_500.0,
    queue_depth=32,
)
