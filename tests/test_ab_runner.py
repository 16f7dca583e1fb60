"""The verdict rule of ``benchmarks/ab.py``, the A/B pair runner.

A metric resolves when the change wins (or loses) at least nine pairs
in ten, and five at least, and its median moves by more than the
base's interquartile range; ties count for neither side.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_ab():
    spec = importlib.util.spec_from_file_location(
        "ab", ROOT / "benchmarks" / "ab.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ab = _load_ab()

BASE = [76.3, 76.8, 77.6, 76.1, 79.4, 77.8, 76.3, 76.5, 78.3, 75.8]


def test_a_clear_gain_resolves_better():
    change = [value * 1.15 for value in BASE]
    assert ab.verdict(BASE, change, higher_is_better=True) == (10, 0, "better")
    # The same numbers on a lower-is-better metric are a loss.
    assert ab.verdict(BASE, change, higher_is_better=False) == (0, 10, "worse")


def test_identical_runs_are_unresolved():
    assert ab.verdict(BASE, list(BASE), higher_is_better=True) == (0, 0, None)


def test_a_shift_inside_the_base_spread_is_unresolved():
    # Every pair won, by less than the base's interquartile range.
    change = [value + 0.1 for value in BASE]
    wins, losses, outcome = ab.verdict(BASE, change, higher_is_better=True)
    assert (wins, losses) == (10, 0)
    q1, _, q3 = ab.quartiles(BASE)
    assert q3 - q1 > 0.1
    assert outcome is None


def test_eight_wins_in_ten_are_unresolved():
    change = [value * 1.2 for value in BASE[:8]] + BASE[8:]
    assert ab.verdict(BASE, change, higher_is_better=True) == (8, 0, None)


def test_too_few_pairs_resolve_nothing():
    base = BASE[: ab.MIN_PAIRS - 1]
    change = [value * 2 for value in base]
    assert ab.verdict(base, change, higher_is_better=True)[2] is None
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
