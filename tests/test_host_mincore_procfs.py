"""Unit tests for the recorder's mincore scans and procfs polling."""

import pytest

from repro.core.recorder import mincore_recorder
from repro.host import AddressSpace, HostParams, PageCache, Procfs
from repro.sim import Environment


PARAMS = HostParams()


def run(env, gen):
    return env.run(until=env.process(gen))


def _record(env, cache, num_pages, done, **kwargs):
    """Run the recorder over ``mem`` until ``done``; its procfs polls
    an address space of ``num_pages`` with no PTEs."""
    procfs = Procfs(env, PARAMS, AddressSpace(num_pages))
    return run(
        env,
        mincore_recorder(
            env, PARAMS, cache, procfs, "mem", num_pages, done, **kwargs
        ),
    )


def test_mincore_reports_present_pages():
    env = Environment()
    cache = PageCache(env)
    cache.watch("mem")
    cache.insert("mem", 1)
    cache.insert("mem", 3)
    cache.insert("other", 2)
    done = env.event()
    done.succeed()

    ws = _record(env, cache, 5, done)
    assert ws.pages == [1, 3]


def test_mincore_charges_scan_cost():
    # With ``done`` already fired the recorder makes only its final
    # sweep: one scan of the whole mapping, base + per-page.
    env = Environment()
    cache = PageCache(env)
    done = env.event()
    done.succeed()
    _record(env, cache, 1000, done)
    expected = PARAMS.mincore_base_us + 1000 * PARAMS.mincore_per_page_us
    assert env.now == pytest.approx(expected)


def test_mincore_new_pages_incremental():
    # Each scan reports only the pages inserted since the previous one:
    # two scans, two groups, and a page dropped and re-inserted is not
    # reported again.
    env = Environment()
    cache = PageCache(env)
    space = AddressSpace(10)
    procfs = Procfs(env, PARAMS, space)
    cache.watch("mem")
    done = env.event()

    def guest():
        for page in (0, 5):
            cache.insert("mem", page)
            space.install_pte(page, 1)
        yield env.timeout(500)
        cache.drop_file("mem")
        for page in (3, 0):
            cache.insert("mem", page)
        yield env.timeout(500)
        done.succeed()

    recorder = env.process(
        mincore_recorder(
            env, PARAMS, cache, procfs, "mem", 10, done,
            group_pages=2, poll_interval_us=100,
        )
    )
    env.process(guest())
    ws = env.run(until=recorder)
    assert ws.pages_of_group(1) == [0, 5]
    assert ws.pages_of_group(2) == [3]
    assert cache.watches["mem"] == [0, 5, 3, 0]


def test_procfs_rss():
    env = Environment()
    space = AddressSpace(100)
    space.mmap_anonymous(0, 100)
    procfs = Procfs(env, PARAMS, space)

    def poll():
        rss = yield from procfs.rss_pages()
        return rss

    assert run(env, poll()) == 0
    space.install_pte(1, 1)
    space.install_pte(2, 1)
    assert run(env, poll()) == 2
    assert procfs.polls == 2
    assert env.now == pytest.approx(2 * PARAMS.procfs_poll_us)
