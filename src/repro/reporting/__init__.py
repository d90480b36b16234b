"""Plain-text reporting helpers."""

from .tables import format_table
from .trace_view import render_decision_timeline, render_run

__all__ = [
    "format_table",
    "render_decision_timeline",
    "render_run",
]
