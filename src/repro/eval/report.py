"""Plain-text table formatting for benchmark output.

Every benchmark prints the rows the paper reports, side by side with
the paper's numbers, through these helpers — uniform, dependency-free
and diff-friendly.
"""

from __future__ import annotations

__all__ = ["format_table", "format_comparison", "check_within"]


def format_table(
    headers: list[str],
    rows: list[list[object]],
    title: str | None = None,
) -> str:
    """Fixed-width table; floats rendered with 4 significant digits."""
    if not headers:
        raise ValueError("need at least one column")
    rendered = [[_render(cell) for cell in row] for row in rows]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rendered)) if rendered else len(headers[c])
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[c] for c in range(len(headers))))
    for row in rendered:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in range(len(row))))
    return "\n".join(lines)


def _render(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_comparison(
    name: str, paper_value: float, measured: float, unit: str = ""
) -> str:
    """One paper-vs-measured line with the deviation."""
    if paper_value == 0:
        deviation = float("inf") if measured else 0.0
    else:
        deviation = 100.0 * (measured - paper_value) / paper_value
    suffix = f" {unit}" if unit else ""
    return (
        f"{name:<42} paper {paper_value:>10.4g}{suffix}   "
        f"measured {measured:>10.4g}{suffix}   ({deviation:+.1f} %)"
    )


def check_within(measured: float, expected: float, tolerance: float) -> bool:
    """True when measured is within ``tolerance`` (fraction) of expected."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    if expected == 0:
        return abs(measured) <= tolerance
    return abs(measured - expected) / abs(expected) <= tolerance
