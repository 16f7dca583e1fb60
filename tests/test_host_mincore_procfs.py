"""Unit tests for the recorder's mincore scans and procfs polling."""

import pytest

from repro.core.recorder import mincore_recorder
from repro.host import AddressSpace, HostParams, PageCache, Procfs
from repro.host.fault import ANON_CODE, FaultStats
from repro.sim import Environment


PARAMS = HostParams()


def run(env, gen):
    return env.run(until=env.process(gen))


def _record(env, cache, num_pages, **kwargs):
    """Run the recorder over ``mem`` for an invocation that ends as it
    starts; its procfs polls an address space of ``num_pages`` with no
    PTEs."""
    procfs = Procfs(env, PARAMS, AddressSpace(num_pages))
    return run(
        env,
        mincore_recorder(
            env, PARAMS, cache, procfs, "mem", num_pages, env.now,
            FaultStats(), **kwargs
        ),
    )


def test_mincore_reports_present_pages():
    env = Environment()
    cache = PageCache(env)
    cache.watch("mem")
    cache.insert_range("mem", 1, 1)
    cache.insert_range("mem", 3, 1)
    cache.insert_range("other", 2, 1)

    ws = _record(env, cache, 5)
    assert ws.pages == [1, 3]


def test_mincore_charges_scan_cost():
    # With the invocation over before the first poll the recorder
    # makes only its final sweep: one scan of the whole mapping, base +
    # per-page.
    env = Environment()
    cache = PageCache(env)
    _record(env, cache, 1000)
    expected = PARAMS.mincore_base_us + 1000 * PARAMS.mincore_per_page_us
    assert env.now == pytest.approx(expected)


class _Guest:
    """A recorded VM's side of the recorder: a 10-page space, its
    procfs and fault log, and the watched memory file ``mem``."""

    def __init__(self):
        self.env = Environment()
        self.cache = PageCache(self.env)
        self.space = AddressSpace(10)
        self.procfs = Procfs(self.env, PARAMS, self.space)
        self.faults = FaultStats()
        self.cache.watch("mem")

    def install(self, page, start, duration=0.0):
        """An anonymous fault on ``page`` from ``start`` to ``start +
        duration``, logged and installed now."""
        self.space.install_pte(page, 1)
        self.faults.log(ANON_CODE, page, start, duration)

    def record(self, invocation, **kwargs):
        """Run ``invocation`` from instant 0, then the recorder."""
        env = self.env

        def phase():
            yield from invocation()
            return (
                yield from mincore_recorder(
                    env, PARAMS, self.cache, self.procfs, "mem", 10, 0.0,
                    self.faults, **kwargs
                )
            )

        return env.run(until=env.process(phase()))


#: The instant the recorder's first procfs read happens, and the cost
#: of one scan of the 10-page mapping.
FIRST_READ = PARAMS.procfs_poll_us
SCAN_US = PARAMS.mincore_base_us + PARAMS.mincore_per_page_us * 10


def test_mincore_new_pages_incremental():
    # Each scan reports only the pages inserted since the previous one:
    # two scans, two groups, and a page dropped and re-inserted is not
    # reported again.
    guest = _Guest()
    env, cache = guest.env, guest.cache

    def invocation():
        for page in (0, 5):
            cache.insert_range("mem", page, 1)
            guest.install(page, env.now)
        yield env.timeout(500)
        cache.drop_file("mem")
        for page in (3, 0):
            cache.insert_range("mem", page, 1)
        yield env.timeout(500)

    ws = guest.record(invocation, group_pages=2, poll_interval_us=100)
    assert ws.group_of == {0: 1, 5: 1, 3: 2}
    watch = cache.watches["mem"]
    assert watch.pages == [0, 5, 3, 0]
    assert watch.instants.tolist() == [0.0, 0.0, 500.0, 500.0]
    assert watch.drops == [(500.0, 2)]


def _groups(ws):
    return [
        sorted(page for page, group in ws.group_of.items() if group == g)
        for g in range(1, ws.num_groups + 1)
    ]


@pytest.mark.parametrize("ends_before_the_read", [False, True])
def test_an_install_at_a_read_instant_is_not_seen_by_it(ends_before_the_read):
    # Page 3's fault ends exactly at the first procfs read (or just
    # before it). Seen, the RSS reaches the group size and a scan
    # catches page 1 alone; unseen, the next poll's scan also catches
    # pages 3 and 4, inserted later.
    guest = _Guest()
    env, cache = guest.env, guest.cache
    end = FIRST_READ - 0.5 if ends_before_the_read else FIRST_READ

    def invocation():
        cache.insert_range("mem", 1, 1)
        guest.install(1, 0.0)
        guest.install(3, 0.0, end)
        yield env.timeout(100)
        cache.insert_range("mem", 3, 2)
        yield env.timeout(400)

    ws = guest.record(invocation, group_pages=2)
    expected = [[1], [3, 4]] if ends_before_the_read else [[1, 3], [4]]
    assert _groups(ws) == expected


def test_an_insertion_at_a_scan_instant_is_not_seen_by_it():
    # The first read sees two installs, so a scan reads the watch at
    # FIRST_READ + SCAN_US: pages 2 and 3, inserted exactly then, wait
    # for the final sweep (seen, they would share page 1's batch).
    guest = _Guest()
    env, cache = guest.env, guest.cache
    scan_at = FIRST_READ + SCAN_US

    def invocation():
        cache.insert_range("mem", 1, 1)
        guest.install(1, 0.0)
        guest.install(5, 0.0)
        yield env.wake_at(scan_at)
        cache.insert_range("mem", 2, 2)
        yield env.timeout(300)

    ws = guest.record(invocation, group_pages=2)
    assert _groups(ws) == [[1], [2, 3]]


@pytest.mark.parametrize(
    "finished, polls, sweep_at",
    [
        # The first read's instant: the sweep follows that poll.
        (FIRST_READ, 1, FIRST_READ),
        # The instant the first sleep ends: no second poll.
        (FIRST_READ + 200.0, 1, FIRST_READ + 200.0),
        # Just after it: one more poll.
        (FIRST_READ + 200.5, 2, FIRST_READ + 200.0 + FIRST_READ),
    ],
)
def test_an_invocation_ending_at_a_wake_instant_is_seen_then(
    finished, polls, sweep_at
):
    guest = _Guest()
    env = guest.env

    def invocation():
        yield env.wake_at(finished)

    guest.record(invocation)
    assert guest.procfs.polls == polls
    assert env.now == sweep_at + SCAN_US


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
