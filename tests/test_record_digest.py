"""An independent reference for the FaaSnap record phase.

The mincore recorder replays the daemon's procfs polls and mincore
scans from the recorded VM's fault log and the page cache's
time-stamped watch. This test pins what the record phase produces —
the instant it ends, the working-set groups and the loading set — for
the six restore functions of the benchmark at input A and at twice
its size, to a sha256 digest recorded while the recorder still ran as
live polls on the event heap, so it does not depend on the replay it
checks.
"""

import hashlib

from repro.core.policies import Policy
from repro.experiments.common import fresh_platform
from repro.workloads.base import INPUT_A, InputSpec

FUNCTIONS = ("hello-world", "json", "compression", "pyaes", "chameleon", "image")
INPUTS = (INPUT_A, InputSpec(content_id=1, size_ratio=2.0))

#: sha256 of :func:`record_rows`.
RECORD_DIGEST = (
    "745ac5ebdf00ca062b17d62381935de6be7f07ba3fef55994d1c480662f97b43"
)


def record_rows():
    """One row per sanitized record, in order: the simulated instant
    the record phase ended (exact hex), the working set as ``(page,
    group)`` pairs and the loading set's regions and counts."""
    platform, handles = fresh_platform(functions=FUNCTIONS)
    rows = []
    for name in FUNCTIONS:
        for spec in INPUTS:
            artifacts = platform.ensure_record(
                handles[name], spec, Policy.FAASNAP
            )
            loading = artifacts.loading_set
            rows.append(
                (
                    name,
                    spec.size_ratio,
                    platform.env.now.hex(),
                    sorted(artifacts.ws_groups.group_of.items()),
                    [
                        (r.start, r.npages, r.group, r.file_offset)
                        for r in loading.regions
                    ],
                    loading.essential_pages,
                    loading.total_pages,
                    loading.unmerged_region_count,
                )
            )
    return rows


def test_record_phases_match_recorded_digest():
    digest = hashlib.sha256(repr(record_rows()).encode()).hexdigest()
    assert digest == RECORD_DIGEST
