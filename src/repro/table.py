"""Fixed-width text tables (standard library only, imports nothing from
``repro``): the one renderer behind ``Result.to_table``, the EXPLAIN and
EXPLAIN ANALYZE reports, the trace summaries and the benchmark tables,
with the cell formats they share."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: Optional[str] = None
) -> str:
    """Render a fixed-width text table."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_seconds(seconds: Optional[float]) -> str:
    """A duration in the largest unit that keeps it readable; ``-`` for
    ``None`` (nothing measured)."""
    if seconds is None:
        return "-"
    if seconds >= 1:
        return "%.2fs" % seconds
    if seconds >= 1e-3:
        return "%.2fms" % (seconds * 1e3)
    return "%.0fµs" % (seconds * 1e6)


def format_optional(value: Optional[int]) -> str:
    """A width or count, ``?`` when it was not computed."""
    return "?" if value is None else str(value)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "%.6f" % value
    return str(value)
