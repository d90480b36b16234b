"""Plain-text table rendering for experiment reports.

The experiment drivers print their results as simple aligned tables (the same
rows the paper's Section 8 states in prose).  No third-party dependency is
used; the renderer handles lists of dictionaries with scalar values.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render ``rows`` (a list of dicts) as an aligned plain-text table.

    Parameters
    ----------
    rows:
        The table body.  Missing keys render as empty cells.
    columns:
        Column order; defaults to the keys of the first row (in insertion order),
        extended by any keys appearing only in later rows.
    title:
        Optional title printed above the table.
    """
    rows = list(rows)
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    columns = list(columns)

    def render(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    widths = {column: len(column) for column in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = [render(row.get(column)) for column in columns]
        rendered_rows.append(rendered)
        for column, cell in zip(columns, rendered):
            widths[column] = max(widths[column], len(cell))

    header = " | ".join(column.ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    body = [
        " | ".join(cell.ljust(widths[column]) for column, cell in zip(columns, rendered))
        for rendered in rendered_rows
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(header)
    lines.append(separator)
    lines.extend(body)
    return "\n".join(lines)
