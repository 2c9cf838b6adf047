"""Reporting: heatmaps (Fig 9) and result tables."""

from repro.reporting.heatmap import (
    LinkHeat,
    heat_summary,
    link_heat,
    render_ascii,
)
from repro.reporting.tables import (
    ComparisonRow,
    cache_table,
    format_table,
    to_csv,
    write_csv,
)

__all__ = [
    "ComparisonRow",
    "LinkHeat",
    "cache_table",
    "format_table",
    "heat_summary",
    "link_heat",
    "render_ascii",
    "to_csv",
    "write_csv",
]
