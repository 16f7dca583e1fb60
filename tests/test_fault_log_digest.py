"""An independent reference for the fault log.

``test_golden_parity`` holds the batched fault path equal to the event
path, but both paths price faults with one classifier, so a change to
that classifier moves them together. This test pins the golden grid's
``canonical()`` rows (every result scalar and every fault record of
json under the four main policies and WARM, at input ratios 1.0 and
4.0) to a sha256 digest recorded when the event path and the batched
path still priced faults with separate code, so it does not depend on
the classifier it checks.
"""

import dataclasses
import enum
import hashlib

from tests.test_golden_parity import _run_grid

#: sha256 of the golden grid's canonical rows (see :func:`_plain`).
GOLDEN_DIGEST = (
    "d6aad85b1f9fb529727f395c1e53f23b9fcc5b9c7f1cc5af18b63406805edf6e"
)


def _plain(value):
    """``value`` with enums as their values, dataclasses as tuples and
    floats as exact hex strings, so ``repr`` is a stable encoding."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.astuple(value))
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_plain(item) for item in value)
    return value


def grid_digest():
    rows = _run_grid(batch_faults=True)
    return hashlib.sha256(repr(_plain(rows)).encode()).hexdigest()


def test_fault_log_matches_recorded_digest():
    assert grid_digest() == GOLDEN_DIGEST
