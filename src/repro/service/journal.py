"""JSON-lines command journal for the cluster service.

Line 1 is a header carrying the schema tag and the *spec* — the full
set of construction arguments :func:`~repro.service.core.build_service`
needs to rebuild an identical service (fleet synthesis knobs, cluster
topology, seeds, sampler interval, arrival-source kind). Every
subsequent line is one executed command::

    {"seq": 3, "cmd": {"cmd": "advance", "args": {"ms": 500}},
     "pulled": [[12034.5, "fn0002"], ...],
     "digest": {"t_us": ..., "served": ..., "latency_checksum_us": ...,
                "events": ...}}

``pulled`` records the arrivals the service's source yielded during an
``advance``, so replay never needs the source — a journal is
self-contained even when the original arrivals came from stdin.
``digest`` is the simulation-state fingerprint after the command;
:func:`~repro.service.core.replay_journal` re-executes the stream and
compares digests with :func:`first_mismatch`, which is the service's
determinism gate.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.metrics.exporters import canonical_json

JOURNAL_SCHEMA = "repro.service-journal/1"

#: Journal digest components in comparison order: the cheap state
#: scalars first, then the SHA-256 extensions the status commands add.
DIGEST_COMPONENTS = (
    "t_us",
    "served",
    "latency_checksum_us",
    "events",
    "telemetry_sha256",
    "slo_sha256",
    "durability_sha256",
)


class JournalError(ValueError):
    """A journal file that cannot be read."""


def first_mismatch(
    expected: Dict[str, Any],
    actual: Dict[str, Any],
    components: Sequence[str] = DIGEST_COMPONENTS,
) -> Optional[Dict[str, Any]]:
    """Compare two digests component by component, in ``components``
    order, and return the first that differs as ``{"field",
    "expected", "actual"}``; ``None`` when all of them agree. A
    component missing from a digest reads as ``None``, so a component
    only one side carries is a mismatch."""
    for key in components:
        if expected.get(key) != actual.get(key):
            return {
                "field": key,
                "expected": expected.get(key),
                "actual": actual.get(key),
            }
    return None


class JournalWriter:
    """Append-only journal writer. Accepts a path (file owned, opened
    for write) or an open text handle (caller owns). The header is
    written lazily on the first append — or eagerly via
    :meth:`write_header` — so a writer constructed for a run that
    never executes a command leaves no partial file behind."""

    def __init__(self, target, spec: Optional[Dict[str, Any]] = None):
        if hasattr(target, "write"):
            self._fh: Optional[TextIO] = target
            self._owned = False
        else:
            self._path = str(target)
            self._fh = None
            self._owned = True
        self._spec = dict(spec or {})
        self._header_written = False
        self.entries = 0

    def _ensure_open(self) -> TextIO:
        if self._fh is None:
            self._fh = open(self._path, "w", encoding="utf-8")
        return self._fh

    def write_header(self, spec: Optional[Dict[str, Any]] = None) -> None:
        if self._header_written:
            return
        if spec is not None:
            self._spec = dict(spec)
        fh = self._ensure_open()
        header = {"schema": JOURNAL_SCHEMA, "spec": self._spec}
        fh.write(canonical_json(header) + "\n")
        self._header_written = True

    def append(self, entry: Dict[str, Any]) -> None:
        self.write_header()
        fh = self._ensure_open()
        fh.write(canonical_json(entry) + "\n")
        fh.flush()
        self.entries += 1

    def close(self) -> None:
        if self._fh is not None and self._owned:
            self._fh.close()
            self._fh = None


def read_journal(path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a journal file; returns ``(spec, entries)``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise JournalError(f"{path}: empty journal")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JournalError(f"{path}: bad header: {exc}") from None
    if header.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"{path}: unsupported schema {header.get('schema')!r}"
        )
    spec = header.get("spec") or {}
    entries: List[Dict[str, Any]] = []
    for index, line in enumerate(lines[1:], start=2):
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise JournalError(f"{path}:{index}: bad entry: {exc}") from None
    return spec, entries
