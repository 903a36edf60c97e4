"""Plain-text table rendering for the CLI, examples and benchmarks."""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["format_probability", "render_table"]


def format_probability(probability: float) -> str:
    """A probability to four places; ``n/a`` for an unsampled ``nan``."""
    return "n/a" if math.isnan(probability) else f"{probability:.4f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render a fixed-width text table.

    Args:
        headers: column titles.
        rows: row cells; converted with ``str``.
        title: optional title line above the table.

    Returns:
        The rendered table as a single string (no trailing newline).
    """
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    separator = "  ".join("-" * width for width in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt(list(headers)))
    lines.append(separator)
    lines.extend(fmt(row) for row in text_rows)
    return "\n".join(lines)
