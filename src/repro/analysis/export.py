"""Exporter: tables as Markdown.

The text renderers target terminals; this exporter targets documents
(``repro report`` writes its tables through it).
"""

from __future__ import annotations

from repro.analysis.tables import TableResult

__all__ = ["table_to_markdown"]


def table_to_markdown(table: TableResult) -> str:
    """Render a :class:`TableResult` as a GitHub-flavoured table."""
    def row(cells: list[str]) -> str:
        return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"

    lines = [f"**{table.table_id}: {table.title}**", ""]
    lines.append(row(table.header))
    lines.append("|" + "|".join("---" for _ in table.header) + "|")
    lines.extend(row(cells) for cells in table.rows)
    return "\n".join(lines)
