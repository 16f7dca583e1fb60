"""Fixed-width text tables for benchmark output."""

from __future__ import annotations

from typing import Any, List, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str = "",
) -> str:
    """Render an aligned text table.

    Numbers are right-aligned, text left-aligned; floats get a
    magnitude-appropriate precision. Returns a string ready to print.
    """
    formatted: List[List[str]] = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in formatted:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def align(cell: str, raw: Any, width: int) -> str:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return cell.rjust(width)
        return cell.ljust(width)

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for raw_row, row in zip(rows, formatted):
        lines.append(
            "  ".join(
                align(cell, raw, width)
                for cell, raw, width in zip(row, raw_row, widths)
            )
        )
    return "\n".join(lines)
