"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    timestamps = []

    def proc():
        yield env.timeout(10)
        timestamps.append(env.now)
        yield env.timeout(5.5)
        timestamps.append(env.now)

    env.process(proc())
    env.run()
    assert timestamps == [10.0, 15.5]


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="tick")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["tick"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=35)
    assert env.now == 35.0


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return "done"

    result = env.run(until=env.process(proc()))
    assert result == "done"
    assert env.now == 3.0


def test_events_fire_in_schedule_order_at_same_instant():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_another_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(7)
        log.append(("child", env.now))
        return 99

    def parent():
        value = yield env.process(child())
        log.append(("parent", env.now, value))

    env.process(parent())
    env.run()
    assert log == [("child", 7.0), ("parent", 7.0, 99)]


def test_waiting_on_already_finished_process():
    env = Environment()
    results = []

    def child():
        yield env.timeout(1)
        return "early"

    def parent(child_proc):
        yield env.timeout(10)
        value = yield child_proc
        results.append((env.now, value))

    child_proc = env.process(child())
    env.process(parent(child_proc))
    env.run()
    assert results == [(10.0, "early")]


def test_manual_event_succeed():
    env = Environment()
    got = []

    def waiter(evt):
        value = yield evt
        got.append(value)

    evt = Event(env)
    env.process(waiter(evt))

    def trigger():
        yield env.timeout(4)
        evt.succeed("payload")

    env.process(trigger())
    env.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    env = Environment()
    evt = Event(env)
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_propagates_into_waiter():
    env = Environment()
    caught = []

    def waiter(evt):
        try:
            yield evt
        except ValueError as exc:
            caught.append(str(exc))

    evt = Event(env)
    env.process(waiter(evt))
    evt.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_uncaught_process_exception_surfaces_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("kaboom")

    env.process(bad())
    with pytest.raises(RuntimeError, match="kaboom"):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1)
        raise RuntimeError("inner")

    def parent():
        try:
            yield env.process(bad())
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["inner"]


def test_yielding_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(5)
        proc.interrupt("stop now")

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", 5.0, "stop now")]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_unhandled_interrupt_does_not_crash_run():
    env = Environment()

    def sleeper():
        yield env.timeout(1000)

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(5)
        proc.interrupt()

    env.process(interrupter())
    env.run()
    assert env.now >= 5.0


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def worker(delay, value):
        yield env.timeout(delay)
        return value

    def coordinator():
        procs = [env.process(worker(d, v)) for d, v in [(5, "a"), (2, "b"), (9, "c")]]
        values = yield env.all_of(procs)
        results.append((env.now, values))

    env.process(coordinator())
    env.run()
    assert results == [(9.0, ["a", "b", "c"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def coordinator():
        values = yield env.all_of([])
        results.append(values)

    env.process(coordinator())
    env.run()
    assert results == [[]]


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def worker(delay, value):
        yield env.timeout(delay)
        return value

    def coordinator():
        procs = [env.process(worker(d, v)) for d, v in [(5, "slow"), (2, "fast")]]
        index, value = yield env.any_of(procs)
        results.append((env.now, index, value))

    env.process(coordinator())
    env.run(until=20)
    assert results == [(2.0, 1, "fast")]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(12)
    assert env.peek() == 12.0


def test_peek_empty_queue_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_step_on_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_backwards_rejected():
    env = Environment(initial_time=100)
    with pytest.raises(SimulationError):
        env.run(until=50)


def test_deterministic_repeated_runs():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(tag, delay):
            for i in range(3):
                yield env.timeout(delay)
                trace.append((tag, i, env.now))

        env.process(worker("x", 3))
        env.process(worker("y", 5))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


def test_timeout_is_event_subclass():
    env = Environment()
    assert isinstance(env.timeout(1), Timeout)
    assert isinstance(env.timeout(1), Event)


def test_process_return_value_via_event_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return {"answer": 42}

    p = env.process(proc())
    env.run()
    assert p.value == {"answer": 42}
    assert p.ok
    assert not p.is_alive
