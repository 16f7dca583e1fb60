"""Edge-case tests for the simulation kernel."""

import pytest

from repro.sim import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Resource,
    SimulationError,
)


def test_any_of_with_failing_first_child_propagates():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1)
        raise RuntimeError("first")

    def good():
        yield env.timeout(10)
        return "ok"

    def waiter():
        try:
            yield env.any_of([env.process(bad()), env.process(good())])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run(until=20)
    assert caught == ["first"]


def test_any_of_requires_children():
    env = Environment()
    with pytest.raises(SimulationError):
        AnyOf(env, [])


def test_all_of_with_failing_child_propagates():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(5)
        raise ValueError("child failed")

    def good():
        yield env.timeout(1)

    def waiter():
        try:
            yield env.all_of([env.process(good()), env.process(bad())])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run(until=20)
    assert caught == ["child failed"]


def test_all_of_with_already_failed_child():
    env = Environment()
    failed = Event(env)
    failed.fail(ValueError("pre-failed"))
    env.run(until=0)  # process the failure event
    caught = []

    def waiter():
        try:
            yield env.all_of([failed])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run(until=1)
    assert caught == ["pre-failed"]


def test_interrupt_while_waiting_on_resource():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(100)
        res.release(req)

    def waiter():
        req = res.request()
        try:
            yield req
            log.append("granted")
        except Interrupt:
            log.append("interrupted")
            res.release(req)  # cancel the queued request

    env.process(holder())
    waiting = env.process(waiter())

    def interrupter():
        yield env.timeout(10)
        waiting.interrupt()

    env.process(interrupter())
    env.run()
    assert log == ["interrupted"]
    # The withdrawn request was not granted when the holder released.
    assert res.in_use == 0


def test_event_fail_requires_exception():
    env = Environment()
    event = Event(env)
    with pytest.raises(SimulationError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_process_rejects_non_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_cross_environment_event_rejected():
    env_a = Environment()
    env_b = Environment()
    foreign = Event(env_b)

    def proc():
        yield foreign

    env_a.process(proc())
    with pytest.raises(SimulationError):
        env_a.run()


def test_run_until_event_with_drained_queue_raises():
    env = Environment()
    never = Event(env)
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=never)


def test_zero_delay_timeout_fires_same_instant():
    env = Environment()
    times = []

    def proc():
        yield env.timeout(0)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [0.0]


def test_interleaved_resources_and_timeouts_deterministic():
    def build():
        env = Environment()
        res = Resource(env, capacity=2)
        order = []

        def worker(tag, hold):
            req = res.request()
            yield req
            order.append((tag, env.now))
            yield env.timeout(hold)
            res.release(req)

        for tag, hold in [("a", 7), ("b", 3), ("c", 5), ("d", 1)]:
            env.process(worker(tag, hold))
        env.run()
        return order

    assert build() == build()
    order = build()
    assert [tag for tag, _ in order] == ["a", "b", "c", "d"]
    # c starts when b (the shorter holder) releases at t=3.
    assert dict(order)["c"] == 3.0


# -- advance_to (the service core's incremental clock) -----------------


def test_advance_to_zero_length_window_dispatches_same_instant_only():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(5)
        fired.append(env.now)

    env.process(proc())
    # A zero-length window moves no time but does dispatch events
    # already scheduled at the current instant — here the process
    # start, which runs up to its first yield.
    assert env.advance_to(env.now) == 1
    assert env.now == 0.0
    assert fired == []
    # Nothing left at this instant: now it is a true no-op.
    assert env.advance_to(env.now) == 0


def test_advance_to_past_deadline_raises():
    env = Environment()
    env.advance_to(10.0)
    assert env.now == 10.0
    with pytest.raises(SimulationError):
        env.advance_to(5.0)


def test_advance_to_processes_events_exactly_on_horizon():
    env = Environment()
    fired = []

    def proc(delay):
        yield env.timeout(delay)
        fired.append(env.now)

    env.process(proc(10))
    env.process(proc(20))
    env.process(proc(20.0000001))
    # An event landing exactly on the horizon fires inside this
    # window, not the next one.
    env.advance_to(20.0)
    assert fired == [10.0, 20.0]
    assert env.now == 20.0
    env.advance_to(30.0)
    assert fired == [10.0, 20.0, 20.0000001]


def test_advance_to_sets_clock_even_with_no_events():
    env = Environment()
    assert env.advance_to(123.5) == 0
    assert env.now == 123.5


def test_advance_to_windows_chunking_invariant():
    """The same workload advanced in one window or many lands on the
    same clock, event count, and firing order."""

    def build():
        env = Environment()
        fired = []

        def proc(delay, tag):
            yield env.timeout(delay)
            fired.append((tag, env.now))

        for i, delay in enumerate((3, 7, 7, 11, 29)):
            env.process(proc(delay, i))
        return env, fired

    one_env, one_fired = build()
    total = one_env.advance_to(40.0)

    many_env, many_fired = build()
    chunked = 0
    for horizon in (1.0, 7.0, 7.0, 12.5, 40.0):
        chunked += many_env.advance_to(horizon)
    assert many_env.now == one_env.now
    assert chunked == total
    assert many_fired == one_fired
