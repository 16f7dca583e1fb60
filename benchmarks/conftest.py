"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper and
prints the rows the paper reports (run with ``-s`` to see them, or
read the captured output). Set ``REPRO_BENCH_FULL=1`` to run the
complete parameter sweeps; the default trims the heaviest experiments
so the whole suite finishes in a few minutes while still exercising
every system and mechanism.
"""

import os

import pytest


def full_sweeps() -> bool:
    """True when the operator asked for the paper's full sweeps."""
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture
def bench_once(request):
    """Run an expensive experiment exactly once under pytest-benchmark.

    The simulation is deterministic, so repeated rounds only burn
    time; a single round records the honest wall-clock cost of
    regenerating the artefact. Without pytest-benchmark installed the
    experiment is simply called, so the shape assertions still run.
    """
    try:
        benchmark = request.getfixturevalue("benchmark")
    except pytest.FixtureLookupError:
        return lambda fn, *args, **kwargs: fn(*args, **kwargs)

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
