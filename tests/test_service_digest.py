"""Digest comparison for journal replay and the perf harness's parity
matrix (``repro.service.journal.first_mismatch``), the shared
canonical-JSON SHA-256, and the ``serve`` CLI journal round trip."""

import hashlib
import json
from pathlib import Path

from repro.cli import main
from repro.metrics.exporters import canonical_sha256
from repro.service import read_journal, replay_journal
from repro.service.journal import DIGEST_COMPONENTS, first_mismatch

SCRIPT = (
    Path(__file__).resolve().parent.parent / "examples" / "service-smoke.cmds"
)

DIGEST = {
    "t_us": 60_000_000.0,
    "served": 12,
    "latency_checksum_us": 1234.5,
    "events": 4321,
    "telemetry_sha256": "ab" * 32,
}


def test_equal_digests_have_no_mismatch():
    assert first_mismatch(DIGEST, dict(DIGEST)) is None


def test_one_diverging_component_is_named():
    actual = dict(DIGEST, events=4322)
    assert first_mismatch(DIGEST, actual) == {
        "field": "events",
        "expected": 4321,
        "actual": 4322,
    }


def test_two_diverging_components_name_the_first_in_order():
    actual = dict(DIGEST, events=4322, served=13)
    assert DIGEST_COMPONENTS.index("served") < DIGEST_COMPONENTS.index(
        "events"
    )
    assert first_mismatch(DIGEST, actual)["field"] == "served"
    assert first_mismatch(DIGEST, actual, ("events", "served")) == {
        "field": "events",
        "expected": 4321,
        "actual": 4322,
    }


def test_only_the_named_components_are_compared():
    actual = dict(DIGEST, events=4322)
    assert first_mismatch(DIGEST, actual, ("t_us", "served")) is None


def test_a_component_one_side_lacks_is_a_mismatch():
    actual = {k: v for k, v in DIGEST.items() if k != "telemetry_sha256"}
    assert first_mismatch(DIGEST, actual) == {
        "field": "telemetry_sha256",
        "expected": "ab" * 32,
        "actual": None,
    }


def test_canonical_sha256_is_key_order_free_compact_json():
    blob = b'{"a":[1,2],"b":{"c":1.5}}'
    expected = hashlib.sha256(blob).hexdigest()
    assert canonical_sha256({"b": {"c": 1.5}, "a": [1, 2]}) == expected
    assert canonical_sha256({"a": [1, 2], "b": {"c": 1.5}}) == expected


def test_cli_serve_journal_replays_and_names_divergence(tmp_path, capsys):
    journal = tmp_path / "smoke.journal"
    argv = ["serve", "--seed", "7", "--script", str(SCRIPT)]
    assert main(argv + ["--journal", str(journal)]) == 0
    assert main(["serve", "--replay", str(journal)]) == 0
    assert "replay OK" in capsys.readouterr().out

    # Tamper two components of one entry: replay reports that entry
    # once, by the first diverging component in DIGEST_COMPONENTS order.
    lines = journal.read_text().splitlines()
    entry = json.loads(lines[2])
    entry["digest"]["events"] += 1
    entry["digest"]["served"] += 1
    lines[2] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    journal.write_text("\n".join(lines) + "\n")
    outcome = replay_journal(journal)
    assert outcome.mismatches == [
        {
            "seq": entry["seq"],
            "field": "served",
            "expected": entry["digest"]["served"],
            "actual": entry["digest"]["served"] - 1,
        }
    ]
    recorded = [e["digest"] for e in read_journal(journal)[1]]
    assert len(outcome.digests) == len(recorded) == outcome.entries
    assert outcome.digests[1]["events"] == recorded[1]["events"] - 1
