"""Core event loop: environment, events, timeouts, and processes.

Time is a ``float`` in *microseconds*. Microseconds are the natural
unit for this reproduction because the paper reports page-fault
service times of 2.5-512 us and end-to-end invocation times of
milliseconds to seconds, all of which stay well within float
precision.

Determinism: events scheduled for the same instant fire in schedule
order (a monotonically increasing sequence number breaks ties), so a
simulation run is a pure function of its inputs.
"""

from __future__ import annotations

import heapq
import random
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.metrics.telemetry import MetricsRegistry

#: Upper bound on pooled Timeout objects kept for reuse per
#: environment. Big simulations churn through millions of timeouts;
#: a small pool captures nearly all of the reuse without pinning
#: memory after a burst.
_TIMEOUT_POOL_MAX = 128


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. yielding a
    non-event, or running an environment with no runnable events)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value given to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*; calling :meth:`succeed` or
    :meth:`fail` schedules it to fire, at which point every registered
    callback runs and waiting processes resume. Events are also
    yielded by processes, which suspends the process until the event
    fires.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (valid only once triggered)."""
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception, which propagates into
        any process waiting on it."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.env._schedule(self, 0.0 if delay is None else delay)
        return self

    def _run_callbacks(self) -> int:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        return len(callbacks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The wrapped generator yields :class:`Event` instances. When a
    yielded event fires, the process resumes with the event's value
    (or the event's exception is thrown into it). The process event
    itself succeeds with the generator's return value, or fails with
    any uncaught exception.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process target is not a generator: {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current instant.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current
        simulated instant.

        Interrupting a finished process is an error; interrupting a
        process twice before it handles the first interrupt is too.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        waiting = self._waiting_on
        # Detach from the awaited event so its eventual firing does
        # not also resume the process. A processed event has already
        # handed its callback list to the dispatcher, so there is
        # nothing left to detach from (``callbacks`` itself is never
        # None in this kernel).
        if waiting is not None and not waiting.processed:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        poke = Event(self.env)
        poke.callbacks.append(self._resume)
        poke.fail(Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._triggered:
            # A stale wakeup (e.g. an event that fired in the same
            # instant the process was interrupted and finished) must
            # not advance a closed generator.
            return
        generator = self._generator
        env = self.env
        # Loop instead of recursing so a chain of already-processed
        # targets (the immediate-dispatch fast path below) cannot
        # overflow the Python stack.
        while True:
            self._waiting_on = None
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self._triggered = True
                self._ok = True
                self._value = stop.value
                env._schedule(self, 0.0)
                return
            except Interrupt as exc:
                self._triggered = True
                self._ok = False
                self._value = exc
                env._schedule(self, 0.0)
                return
            except Exception as exc:
                self._triggered = True
                self._ok = False
                self._value = exc
                env._schedule(self, 0.0)
                return

            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                generator.close()
                self._triggered = True
                self._ok = False
                self._value = exc
                env._schedule(self, 0.0)
                return
            if target.env is not env:
                raise SimulationError(
                    "cannot wait on an event from another environment"
                )
            if target._processed:
                # Immediate dispatch: the target already fired, so
                # resume right away with its outcome instead of
                # round-tripping a fresh poke event through the heap.
                event = target
                continue
            self._waiting_on = target
            target.callbacks.append(self._resume)
            return


class AllOf(Event):
    """Fires when all child events have fired successfully.

    Succeeds with the list of child values (in the order given). If
    any child fails, this event fails with that child's exception.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        failed = next(
            (c for c in self._children if c.triggered and not c.ok), None
        )
        if failed is not None:
            self.fail(failed.value)
            return
        pending = [c for c in self._children if not c.triggered]
        self._pending = len(pending)
        if self._pending == 0:
            self.succeed([c.value for c in self._children])
            return
        for child in pending:
            child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])


class AllFailed(SimulationError):
    """Every child of a :class:`FirstSuccess` race failed.

    ``causes`` lists the children's exceptions in child order.
    """

    def __init__(self, causes: List[BaseException]):
        super().__init__(f"all {len(causes)} raced events failed")
        self.causes = causes


class FirstSuccess(Event):
    """Fires with ``(index, value)`` of the first child to *succeed*.

    Unlike :class:`AnyOf`, a failing child does not decide the race:
    its exception is recorded and the race keeps waiting on the
    others. Only when every child has failed does this event fail,
    with an :class:`AllFailed` carrying all the causes. This is the
    primitive behind request hedging, where a crashed primary attempt
    must not abort the race while its hedge is still running.

    The race deliberately keeps watching the losing children after it
    fires: their late failures then always have at least one
    subscriber, so the dispatcher never re-raises a cancelled loser's
    exception as unhandled.
    """

    __slots__ = ("_children", "_pending", "_causes")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        if not self._children:
            raise SimulationError("FirstSuccess requires at least one event")
        self._pending = len(self._children)
        self._causes: List[Optional[BaseException]] = [None] * len(
            self._children
        )
        for index, child in enumerate(self._children):
            if child.processed:
                self._on_child(index, child)
                if self._triggered and self._ok:
                    break
            else:
                child.callbacks.append(
                    lambda evt, index=index: self._on_child(index, evt)
                )

    def _on_child(self, index: int, child: Event) -> None:
        if self._triggered:
            return
        if child.ok:
            self.succeed((index, child.value))
            return
        self._causes[index] = child.value
        self._pending -= 1
        if self._pending == 0:
            self.fail(AllFailed([c for c in self._causes if c is not None]))


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``."""

    __slots__ = ("_children", "_watched")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        self._watched: List[Tuple[Event, Callable[[Event], None]]] = []
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            if child.processed:
                self._on_child(index, child)
                break
            callback = lambda evt, index=index: self._on_child(index, evt)  # noqa: E731
            child.callbacks.append(callback)
            self._watched.append((child, callback))

    def _on_child(self, index: int, child: Event) -> None:
        if self._triggered:
            return
        # Detach from the losing children: without this, every loser
        # keeps a callback (and through it this AnyOf) alive for the
        # rest of the run.
        watched, self._watched = self._watched, []
        for other, callback in watched:
            if other is child or other.processed:
                continue
            try:
                other.callbacks.remove(callback)
            except ValueError:
                pass
        if child.ok:
            self.succeed((index, child.value))
        else:
            self.fail(child.value)


class Environment:
    """Owns the simulated clock and the pending-event heap."""

    def __init__(self, initial_time: float = 0.0, seed: int = 0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        #: The run seed, and the run's single source of randomness.
        #: Every stochastic consumer (fault schedules, backoff jitter,
        #: injected device errors) draws from this one stream, so a
        #: whole simulation is reproducible from ``seed`` alone.
        #: Deterministic runs simply never touch it.
        self.seed = seed
        self.rng = random.Random(f"env|{seed}")
        #: Events dispatched by :meth:`step` over the environment's
        #: lifetime (the perf harness pins its smoke run's count).
        self.events_processed = 0
        #: Recycled Timeout objects (see :meth:`timeout`).
        self._timeout_pool: List[Timeout] = []
        #: The run's telemetry registry: every component built on this
        #: environment registers its instruments here, so one registry
        #: holds the whole run's picture. Pull-based — dispatch never
        #: touches it.
        self.metrics = MetricsRegistry()
        self.metrics.pull_counter(
            "sim.engine.events", lambda: self.events_processed
        )
        self.metrics.gauge(
            "sim.engine.queue_depth", lambda: len(self._queue)
        )
        self.metrics.gauge(
            "sim.engine.timeout_pool", lambda: len(self._timeout_pool)
        )

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` microseconds.

        Timeouts are the kernel's hottest allocation; finished ones
        with no outside references are recycled through a free-list,
        so most calls here reuse an object instead of allocating.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        return self._arm_timeout(self._now + delay, delay, value)

    def wake_at(self, when: float, value: Any = None) -> Timeout:
        """An event firing at the *absolute* instant ``when``.

        Unlike ``timeout(when - now)``, the clock lands on exactly
        ``when`` (float subtraction then re-addition can be off by an
        ulp). The batched vCPU fast path uses this to keep its
        aggregated wakeups bit-identical to the per-event timeline.
        """
        if when < self._now:
            raise SimulationError(
                f"wake_at({when}) is in the past (now={self._now})"
            )
        return self._arm_timeout(when, when - self._now, value)

    def _arm_timeout(self, when: float, delay: float, value: Any) -> Timeout:
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.delay = delay
            timeout._value = value
            timeout._ok = True
            timeout._triggered = True
            timeout._processed = False
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout.delay = delay
            timeout._value = value
            timeout._ok = True
            timeout._triggered = True
            timeout._processed = False
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, timeout))
        return timeout

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start ``generator`` as a concurrent process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first event in ``events`` fires."""
        return AnyOf(self, events)

    def first_success(self, events: Iterable[Event]) -> FirstSuccess:
        """Event that fires when the first event in ``events``
        *succeeds* (failures are tolerated until all have failed)."""
        return FirstSuccess(self, events)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')``."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        subscribers = event._run_callbacks()
        if (
            type(event) is Timeout
            and len(self._timeout_pool) < _TIMEOUT_POOL_MAX
            and getrefcount(event) == 2
        ):
            # Nobody else holds the timeout (the 2 counts this frame's
            # local plus getrefcount's argument): safe to recycle.
            self._timeout_pool.append(event)
            return
        if not event.ok and subscribers == 0:
            # An unhandled failure with nobody waiting: surface it
            # rather than silently dropping the error, unless it is a
            # process that was deliberately interrupted.
            if isinstance(event.value, Interrupt):
                return
            if isinstance(event, Process):
                raise event.value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until ``until`` fires (if an event), until the clock
        passes ``until`` (if a number), or until no events remain.

        Returns the value of the ``until`` event when one is given.
        """
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            sentinel = until
            while not sentinel.processed:
                if not self._queue:
                    raise SimulationError(
                        "event queue drained before the awaited event fired"
                    )
                self.step()
            if not sentinel.ok:
                raise sentinel.value
            return sentinel.value
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError("cannot run backwards in time")
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        self._now = deadline
        return None

    def advance_to(self, deadline: float) -> int:
        """Bounded-horizon stepping: process every event scheduled at
        or before ``deadline``, then land the clock exactly on
        ``deadline``. Returns the number of events dispatched.

        This is the synchronization primitive for conservative
        parallel simulation (sharded cluster execution): each shard
        advances its own event heap to a common virtual-time barrier,
        exchanges state, and continues. Processes blocked on events
        beyond the horizon simply stay pending — calling
        ``advance_to`` again with a later deadline resumes them, and
        a sequence of ``advance_to`` calls dispatches exactly the
        same events in exactly the same order as one ``run(until=T)``
        to the final horizon (window boundaries add no events of
        their own, so windowing cannot perturb simulated results).
        """
        if deadline < self._now:
            raise SimulationError(
                f"advance_to({deadline}) is in the past (now={self._now})"
            )
        before = self.events_processed
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        self._now = deadline
        return self.events_processed - before
