"""Tests for the measured cost model."""

import pytest

from repro.core.policies import Policy
from repro.fleet.costs import CostModel


@pytest.fixture(scope="module")
def model():
    return CostModel()


def test_costs_ordering(model):
    """Warm < snapshot < cold, for every restore policy."""
    for policy in (Policy.FIRECRACKER, Policy.REAP, Policy.FAASNAP):
        costs = model.costs("json", policy)
        assert costs.warm_us < costs.snapshot_us < costs.cold_us


def test_faasnap_snapshot_cheaper_than_firecracker(model):
    faasnap = model.costs("json", Policy.FAASNAP)
    firecracker = model.costs("json", Policy.FIRECRACKER)
    assert faasnap.snapshot_us < firecracker.snapshot_us
    # Warm and cold costs are policy-independent; each pair is measured
    # on a fresh platform, so they agree exactly.
    assert faasnap.warm_us == firecracker.warm_us
    assert faasnap.cold_us == firecracker.cold_us


def test_costs_cached(model):
    first = model.costs("json", Policy.FAASNAP)
    second = model.costs("json", Policy.FAASNAP)
    assert first is second


def test_warm_memory_reasonable(model):
    costs = model.costs("json", Policy.FAASNAP)
    # A warm 2 GB guest with a ~13 MB working set plus boot/runtime
    # residency: between 100 MB and 2 GB.
    assert 100 < costs.warm_memory_mb < 2048


def test_start_cost_lookup(model):
    costs = model.costs("json", Policy.FAASNAP)
    assert costs.start_cost_us("warm") == costs.warm_us
    assert costs.start_cost_us("snapshot") == costs.snapshot_us
    assert costs.start_cost_us("cold") == costs.cold_us
    with pytest.raises(KeyError):
        costs.start_cost_us("lukewarm")


def test_costs_match_precompute():
    """One measurement path: a lazily measured pair equals the
    precomputed one bit for bit, whatever was measured before it."""
    pairs = [("json", Policy.FAASNAP), ("pyaes", Policy.FAASNAP)]
    lazy = CostModel()
    assert [lazy.costs(*pair) for pair in pairs] == CostModel().precompute(
        pairs, jobs=1
    )
