"""Page maps are immutable values that equal files share.

Recording is seeded, so every host of a local-tier cluster computes
the same artefacts. After prep each distinct page map must exist once,
however many hosts hold a file with it — including a host the live
service adds later — and editing one file must leave the others (and
the clean-snapshot memo) alone.
"""

from repro.cluster import ClusterConfig, ClusterSimulator
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


def _prepped_service(num_hosts=3):
    fleet = synthesize_fleet(2, seed=5, profile_names=("json", "pyaes"))
    config = ClusterConfig(num_hosts=num_hosts, seed=3)
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

    # Editing one shared file replaces its map: the other hosts' files
    # and the clean-snapshot memo keep their contents.
    key = next(iter(first))
    profile = simulator._profiles[key[0]]
    clean_memo = clean_snapshot_contents(profile)
    clean, warm, _ = _files(simulator, 1)[key]
    assert clean.pages is clean_memo
    page = max(warm.pages)
    before = warm.pages[page]
    memo_before = dict(clean_memo)
    warm.write_page(page, before + 1)
    clean.write_page(min(clean.pages), 0)
    assert warm.page_value(page) == before + 1
    for index in (0, 2):
        other_clean, other_warm, _ = _files(simulator, index)[key]
        assert other_warm.page_value(page) == before
        assert other_clean.pages is clean_memo
    assert clean_snapshot_contents(profile) == memo_before


def test_clean_snapshot_contents_hands_out_its_memo():
    profile = get_profile("json")
    assert clean_snapshot_contents(profile) is clean_snapshot_contents(profile)
