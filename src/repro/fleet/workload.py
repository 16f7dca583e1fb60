"""Fleet workload synthesis.

Mirrors the shape of the Azure Functions traces the paper cites
(Shahrad et al., ATC '20; paper §2.1): invocation rates span orders
of magnitude, with a small hot head and a long cold tail — "less than
half of the functions are invoked every hour, and less than 10% are
invoked every minute". We synthesize that by drawing each function's
mean interarrival time log-uniformly between a hot bound (seconds)
and a cold bound (several hours), which reproduces both quoted
quantiles to within a few percent for the default bounds.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.workloads.registry import VARIABLE_INPUT_FUNCTIONS

US_PER_SECOND = 1_000_000.0
US_PER_MINUTE = 60 * US_PER_SECOND
US_PER_HOUR = 60 * US_PER_MINUTE

#: Default interarrival bounds, solved so the log-uniform draw hits
#: the Azure-trace quantiles the paper quotes (~45% of functions
#: invoked at least hourly, ~8% at least once a minute): 25 seconds
#: for the hottest functions, ~18 days for the coldest.
DEFAULT_HOT_INTERARRIVAL_US = 25 * US_PER_SECOND
DEFAULT_COLD_INTERARRIVAL_US = 436 * US_PER_HOUR


@dataclass(frozen=True)
class FleetFunction:
    """One function in the fleet."""

    name: str
    #: Which Table 2 profile models its memory/compute behaviour.
    profile_name: str
    #: Mean interarrival time of its invocations, microseconds.
    mean_interarrival_us: float


@dataclass(frozen=True)
class Arrival:
    """One invocation request."""

    time_us: float
    function: str


@dataclass
class ArrivalTrace:
    """A sorted sequence of arrivals over a fixed horizon."""

    arrivals: List[Arrival] = field(default_factory=list)
    duration_us: float = 0.0

    def __len__(self) -> int:
        return len(self.arrivals)


def synthesize_fleet(
    num_functions: int,
    seed: int = 1,
    profile_names: Optional[Sequence[str]] = None,
    hot_interarrival_us: float = DEFAULT_HOT_INTERARRIVAL_US,
    cold_interarrival_us: float = DEFAULT_COLD_INTERARRIVAL_US,
) -> List[FleetFunction]:
    """Create ``num_functions`` functions with log-uniform rates."""
    if num_functions < 1:
        raise ValueError("need at least one function")
    if not 0 < hot_interarrival_us < cold_interarrival_us:
        raise ValueError("interarrival bounds must be ordered and positive")
    profiles = list(profile_names or VARIABLE_INPUT_FUNCTIONS)
    rng = random.Random(f"fleet|{seed}")
    log_hot = math.log(hot_interarrival_us)
    log_cold = math.log(cold_interarrival_us)
    fleet = []
    for index in range(num_functions):
        interarrival = math.exp(rng.uniform(log_hot, log_cold))
        fleet.append(
            FleetFunction(
                name=f"fn{index:04d}",
                profile_name=profiles[index % len(profiles)],
                mean_interarrival_us=interarrival,
            )
        )
    return fleet


def generate_arrivals(
    fleet: Sequence[FleetFunction],
    duration_us: float,
    seed: int = 1,
) -> ArrivalTrace:
    """Deterministic Poisson arrivals for every function."""
    if duration_us <= 0:
        raise ValueError("duration must be positive")
    arrivals: List[Arrival] = []
    for function in fleet:
        rng = random.Random(f"arrivals|{seed}|{function.name}")
        clock = rng.expovariate(1.0 / function.mean_interarrival_us)
        while clock < duration_us:
            arrivals.append(Arrival(time_us=clock, function=function.name))
            clock += rng.expovariate(1.0 / function.mean_interarrival_us)
    arrivals.sort(key=lambda a: (a.time_us, a.function))
    return ArrivalTrace(arrivals=arrivals, duration_us=duration_us)


# -- streaming arrival sources -----------------------------------------
#
# The live service core (:mod:`repro.service`) does not hold a whole
# trace in memory: it *pulls* arrivals from a source as virtual time
# advances. ``take_until`` is the only operation — return every
# arrival with ``time_us <= rel_time_us`` (relative to the serving
# epoch) that has not been taken yet, in nondecreasing
# ``(time_us, function)`` order, and remember the cursor. Sources are
# single-pass and deterministic: the same sequence of ``take_until``
# horizons yields the same arrivals regardless of how the horizons
# are chunked.


class ArrivalSource:
    """Incremental arrival stream consumed horizon by horizon."""

    def take_until(self, rel_time_us: float) -> List[Arrival]:
        raise NotImplementedError


class TraceArrivalSource(ArrivalSource):
    """A canned :class:`ArrivalTrace` (or arrival list) replayed as a
    stream — the bridge from the batch world to the service core."""

    def __init__(self, trace) -> None:
        arrivals = trace.arrivals if isinstance(trace, ArrivalTrace) else trace
        self._arrivals: List[Arrival] = list(arrivals)
        self._cursor = 0

    def take_until(self, rel_time_us: float) -> List[Arrival]:
        arrivals = self._arrivals
        start = cursor = self._cursor
        n = len(arrivals)
        while cursor < n and arrivals[cursor].time_us <= rel_time_us:
            cursor += 1
        self._cursor = cursor
        return arrivals[start:cursor]


class PoissonArrivalSource(ArrivalSource):
    """Unbounded Poisson arrivals, chunk-for-chunk identical to
    :func:`generate_arrivals`.

    Each function keeps the exact per-function RNG stream
    (``random.Random(f"arrivals|{seed}|{name}")`` expovariate clocks)
    the batch generator uses; the per-function clocks are merged
    through a heap keyed ``(clock, name)``, which reproduces the
    batch generator's ``(time_us, function)`` sort order — so for any
    horizon, the concatenation of ``take_until`` chunks equals the
    prefix of the batch trace, while the stream itself never ends.
    """

    def __init__(self, fleet: Sequence[FleetFunction], seed: int = 1):
        if not fleet:
            raise ValueError("need at least one function")
        self._streams: Dict[str, Tuple[random.Random, float]] = {}
        self._heap: List[Tuple[float, str]] = []
        for function in fleet:
            rng = random.Random(f"arrivals|{seed}|{function.name}")
            clock = rng.expovariate(1.0 / function.mean_interarrival_us)
            self._streams[function.name] = (rng, function.mean_interarrival_us)
            heapq.heappush(self._heap, (clock, function.name))

    def take_until(self, rel_time_us: float) -> List[Arrival]:
        taken: List[Arrival] = []
        heap = self._heap
        while heap and heap[0][0] <= rel_time_us:
            clock, name = heapq.heappop(heap)
            taken.append(Arrival(time_us=clock, function=name))
            rng, mean = self._streams[name]
            heapq.heappush(heap, (clock + rng.expovariate(1.0 / mean), name))
        return taken


class JsonLinesArrivalSource(ArrivalSource):
    """Arrivals read lazily from JSON-lines text, one object per line:
    ``{"time_us": <float>, "function": "<name>"}``.

    Blank lines and ``#`` comments are skipped. Times must be
    nondecreasing (it is a stream; the reader cannot sort), and only
    one record of lookahead is held, so piping an unbounded stream
    through stdin works."""

    def __init__(self, lines: Iterable[str]):
        self._lines: Iterator[str] = iter(lines)
        self._lookahead: Optional[Arrival] = None
        self._last_time = float("-inf")
        self._exhausted = False

    def _next(self) -> Optional[Arrival]:
        for line in self._lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            doc = json.loads(line)
            arrival = Arrival(
                time_us=float(doc["time_us"]), function=str(doc["function"])
            )
            if arrival.time_us < self._last_time:
                raise ValueError(
                    f"arrival times must be nondecreasing: "
                    f"{arrival.time_us} after {self._last_time}"
                )
            self._last_time = arrival.time_us
            return arrival
        self._exhausted = True
        return None

    def take_until(self, rel_time_us: float) -> List[Arrival]:
        taken: List[Arrival] = []
        while True:
            if self._lookahead is None:
                if self._exhausted:
                    break
                self._lookahead = self._next()
                if self._lookahead is None:
                    break
            if self._lookahead.time_us <= rel_time_us:
                taken.append(self._lookahead)
                self._lookahead = None
            else:
                break
        return taken


def frequency_quantiles(fleet: Sequence[FleetFunction]) -> dict:
    """Fraction of functions at the paper's quoted rates: invoked at
    least hourly, and at least once a minute."""
    total = len(fleet)
    hourly = sum(
        1 for f in fleet if f.mean_interarrival_us <= US_PER_HOUR
    )
    minutely = sum(
        1 for f in fleet if f.mean_interarrival_us <= US_PER_MINUTE
    )
    return {
        "at_least_hourly": hourly / total,
        "at_least_minutely": minutely / total,
    }
