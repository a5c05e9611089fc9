"""Paper-style number and table formatting.

The IMC paper renders counts as ``2.25 M`` / ``52.31 k`` and percentages
rounded to integers ("For ease of readability, we round percentages to
integer numbers").  These helpers reproduce that style so our generated
tables are directly comparable with the paper's.
"""

from __future__ import annotations

import math

__all__ = ["si_count", "pct", "pp_delta", "align_table"]

#: Count units in ascending order; the paper never goes beyond "M".
_UNITS: tuple[tuple[int, str], ...] = ((1, ""), (1_000, " k"), (1_000_000, " M"))


def si_count(value: float) -> str:
    """Format ``value`` the way the paper prints counts.

    The unit is chosen *after* rounding, so a value that rounds to
    1000 of one unit promotes to the next instead of rendering as
    ``'1000.00 k'``.

    >>> si_count(2_250_000)
    '2.25 M'
    >>> si_count(52_310)
    '52.31 k'
    >>> si_count(255)
    '255'
    >>> si_count(999_995)
    '1.00 M'
    >>> si_count(999.996)
    '1.00 k'
    """
    if value < 0:
        raise ValueError(f"counts are non-negative, got {value!r}")
    index = 0
    while index + 1 < len(_UNITS) and value >= _UNITS[index + 1][0]:
        index += 1
    # Promote while the two-decimal rendering reaches 1000 of the unit.
    while (
        index + 1 < len(_UNITS)
        and float(f"{value / _UNITS[index][0]:.2f}") >= 1_000
    ):
        index += 1
    scale, suffix = _UNITS[index]
    if scale == 1:
        if float(value).is_integer():
            return str(int(value))
        return f"{value:.2f}"
    return f"{value / scale:.2f}{suffix}"


def _round_half_away_from_zero(value: float) -> int:
    """Round ties away from zero (the paper's convention), not to even."""
    if value >= 0:
        return int(math.floor(value + 0.5))
    return -int(math.floor(-value + 0.5))


def pct(numerator: float, denominator: float) -> str:
    """Integer-rounded percentage, paper style (``'76 %'``).

    Ties round half away from zero — Python's built-in banker's
    rounding would render ``pct(1, 200)`` as ``'0 %'`` and
    ``pct(5, 200)`` as ``'2 %'``, which disagrees with the paper's
    tables.  A zero denominator renders as ``'- %'`` to keep tables
    printable.

    >>> pct(1, 200)
    '1 %'
    >>> pct(5, 200)
    '3 %'
    >>> pct(76.4, 100)
    '76 %'
    >>> pct(5, 0)
    '- %'
    """
    if denominator == 0:
        return "- %"
    return f"{_round_half_away_from_zero(100 * numerator / denominator)} %"


def pp_delta(delta: float) -> str:
    """A share difference as a signed percentage-point cell.

    Rounds to one decimal and never renders ``-0.0``, so an unchanged
    share reads ``+0.0 pp`` whichever side of zero it rounded from.

    >>> pp_delta(0.1234)
    '+12.3 pp'
    >>> pp_delta(-0.35)
    '-35.0 pp'
    >>> pp_delta(-0.0)
    '+0.0 pp'
    >>> pp_delta(-0.0004)
    '+0.0 pp'
    """
    return f"{round(delta * 100, 1) + 0.0:+.1f} pp"


def align_table(rows: list[list[str]], header: list[str] | None = None) -> str:
    """Render ``rows`` as a monospace table with aligned columns.

    All rows (and the header, if given) must have the same number of
    columns.  The first column is left-aligned; the rest right-aligned,
    matching the typography of the paper's count tables.
    """
    body = ([header] if header else []) + rows
    if not body:
        return ""
    width = len(body[0])
    for row in body:
        if len(row) != width:
            raise ValueError(f"ragged table: expected {width} columns, got {len(row)}")
    col_widths = [max(len(row[i]) for row in body) for i in range(width)]
    lines = []
    for index, row in enumerate(body):
        cells = [row[0].ljust(col_widths[0])]
        cells += [cell.rjust(col_widths[i]) for i, cell in enumerate(row) if i > 0]
        lines.append("  ".join(cells).rstrip())
        if header and index == 0:
            lines.append("  ".join("-" * w for w in col_widths))
    return "\n".join(lines)
