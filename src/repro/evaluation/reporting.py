"""Plain-text table rendering for the benchmark harnesses.

The benchmark files print the same rows the paper's tables report; these
helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = [
    "format_table",
    "format_ratio",
    "print_table",
]


def format_ratio(value: Optional[float]) -> str:
    """Render an improvement ratio the way the paper does (``1.95x``)."""
    if value is None:
        return "-"
    if value == float("inf"):
        return "inf"
    return f"{value:.2f}x"


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Render rows as an aligned plain-text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> None:
    print()
    print(format_table(headers, rows, title))
    print()
