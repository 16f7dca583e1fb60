"""Page maps are immutable values that equal files share.

Recording is seeded, so every host of a local-tier cluster computes
the same artefacts. After prep each distinct page map must exist once,
however many hosts hold a file with it — including a host the live
service adds later. Nothing can edit a stored file's map, so sharing
it is safe. The working sets and loading sets of equal recordings are
shared the same way.
"""

import dataclasses

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.core.working_set import WorkingSetGroups
from repro.faults.durability import DurabilityPolicy
from repro.fleet import synthesize_fleet
from repro.service import AddHostCommand, AdvanceCommand
from repro.service.core import ClusterService
from repro.workloads.base import clean_snapshot_contents
from repro.workloads.registry import get_profile

#: Record policies of a FaaSnap cluster: the plain record (warm
#: reuse, cold boots) and the sanitized FaaSnap record.
SANITIZE = (False, True)


def _files(simulator, host_index):
    """Each (function, sanitize) key's artefact files on one host: the
    clean and warm memory files plus the loading-set or REAP file."""
    host = simulator._hosts[host_index].host
    files = {}
    for key, artifacts in host._artifacts.items():
        derived = artifacts.loading_file or artifacts.reap_ws_file
        files[(key[0], key[3])] = (
            artifacts.clean_snapshot.memory_file,
            artifacts.warm_snapshot.memory_file,
            derived,
        )
    return files


def _all_stored_files(simulator):
    for hs in simulator._hosts:
        stores = {id(s): s for s in (hs.host.store, hs.host.artifact_store)}
        for store in stores.values():
            yield from store._files.values()


def _prepped_service(num_hosts=3, **config):
    fleet = synthesize_fleet(2, seed=5, profile_names=("json", "pyaes"))
    config = ClusterConfig(num_hosts=num_hosts, seed=3, **config)
    service = ClusterService(ClusterSimulator(fleet, config))
    service.execute(AdvanceCommand(ms=0))
    return service


def test_equal_artefacts_share_one_page_map_across_hosts():
    service = _prepped_service()
    simulator = service.simulator

    maps = {}
    for stored in _all_stored_files(simulator):
        if stored.pages:
            maps[id(stored.pages)] = stored.pages
    distinct = {tuple(sorted(pages.items())) for pages in maps.values()}
    assert len(maps) == len(distinct)

    first = _files(simulator, 0)
    assert set(first) == {
        (fn.name, sanitize) for fn in simulator.fleet for sanitize in SANITIZE
    }
    for index in range(1, len(simulator._hosts)):
        mine = _files(simulator, index)
        assert set(mine) == set(first)
        for key, files in mine.items():
            for file, donor in zip(files, first[key]):
                assert file is not donor
                assert file.pages is donor.pages

    # A host added live records in the background and shares as well.
    added = service.execute(AddHostCommand())
    assert added["drained"] is True
    service.execute(AdvanceCommand(ms=600_000.0))
    new_index = len(simulator._hosts) - 1
    assert simulator._hosts[new_index].drained is False
    for key, files in _files(simulator, new_index).items():
        for file, donor in zip(files, first[key]):
            assert file.pages is donor.pages


def test_clean_snapshot_contents_hands_out_its_memo():
    profile = get_profile("json")
    assert clean_snapshot_contents(profile) is clean_snapshot_contents(profile)


def test_equal_working_and_loading_sets_are_shared_across_hosts():
    service = _prepped_service()
    simulator = service.simulator
    donors = simulator._hosts[0].host._artifacts
    shared = 0
    for hs in simulator._hosts[1:]:
        for key, artifacts in hs.host._artifacts.items():
            donor = donors[key]
            assert artifacts is not donor
            for name in ("ws_groups", "loading_set", "reap_ws"):
                mine, theirs = getattr(artifacts, name), getattr(donor, name)
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert mine is theirs
                    shared += 1
    # Two functions x two record policies: the sanitized record has a
    # working set and a loading set, the plain one a REAP working set.
    assert shared == 2 * (len(simulator._hosts) - 1) * 3

    # An unequal set keeps its own object; the equal ones are shared.
    key, donor = next(
        (key, artifacts)
        for key, artifacts in donors.items()
        if artifacts.ws_groups is not None
    )
    mine = simulator._hosts[1].host._artifacts[key]
    group_of = dict(donor.ws_groups.group_of)
    page = next(iter(group_of))
    group_of[page] += 1
    edited = WorkingSetGroups(group_of=group_of)
    copy = dataclasses.replace(
        mine,
        ws_groups=edited,
        loading_set=dataclasses.replace(donor.loading_set),
    )
    assert copy.loading_set is not donor.loading_set
    simulator._share_page_maps(copy)
    assert copy.ws_groups is edited
    assert copy.loading_set is donor.loading_set


def test_equal_warm_memory_files_share_one_checksum_tuple():
    service = _prepped_service(durability=DurabilityPolicy(enabled=True))
    simulator = service.simulator
    hosts = [hs.host.host_id for hs in simulator._hosts]
    for fn in simulator.fleet:
        golden = simulator._snapshot_checksums(hosts[0], fn.name)
        assert golden
        for host_id in hosts[1:]:
            assert simulator._snapshot_checksums(host_id, fn.name) is golden
    assert simulator._snapshot_checksums("no-such-host", fn.name) is None
