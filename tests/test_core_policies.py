"""Unit tests for the policy enum's derived properties."""

from repro.core.policies import ABLATION_POLICIES, MAIN_POLICIES, Policy


def test_faasnap_family():
    assert Policy.FAASNAP.is_faasnap_family
    assert Policy.FAASNAP_CONCURRENT.is_faasnap_family
    assert Policy.FAASNAP_PER_REGION.is_faasnap_family
    assert not Policy.REAP.is_faasnap_family
    assert not Policy.FIRECRACKER.is_faasnap_family
    assert not Policy.WARM.is_faasnap_family
    assert not Policy.CACHED.is_faasnap_family


def test_loader_usage_matches_family():
    for policy in Policy:
        assert policy.uses_loader == policy.is_faasnap_family


def test_loading_set_file_only_full_faasnap():
    assert Policy.FAASNAP.uses_loading_set_file
    for policy in Policy:
        if policy is not Policy.FAASNAP:
            assert not policy.uses_loading_set_file


def test_record_phase_requirements():
    assert Policy.REAP.needs_record_phase
    assert Policy.FAASNAP.needs_record_phase
    assert not Policy.FIRECRACKER.needs_record_phase
    assert not Policy.WARM.needs_record_phase


def test_policy_lists():
    assert MAIN_POLICIES == [
        Policy.FIRECRACKER,
        Policy.REAP,
        Policy.FAASNAP,
        Policy.CACHED,
    ]
    assert ABLATION_POLICIES[0] is Policy.FIRECRACKER
    assert ABLATION_POLICIES[-1] is Policy.FAASNAP


def test_policy_values_roundtrip():
    for policy in Policy:
        assert Policy(policy.value) is policy
