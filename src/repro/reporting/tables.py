"""Plain-text and CSV result tables for benches and examples."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass


def format_table(headers: list[str], rows: list[list], floatfmt: str = ".3g") -> str:
    """Align a simple text table (no external dependencies)."""
    def render(cell):
        if isinstance(cell, float):
            return format(cell, floatfmt)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rendered)
    return "\n".join(out)


def cache_table(caches: dict[str, dict]) -> str:
    """Hit-ratio table of ``{name: {"hits", "misses", "hit_rate"}}``."""
    rows = [
        [name, int(c["hits"]), int(c["misses"]), f"{c['hit_rate']:.1%}"]
        for name, c in sorted(caches.items())
    ]
    return format_table(["cache", "hits", "misses", "hit rate"], rows)


def to_csv(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(path: str, headers: list[str], rows: list[list]) -> None:
    """Atomically write a CSV so a killed run never truncates a table."""
    from repro.io.atomic import atomic_write_text

    atomic_write_text(path, to_csv(headers, rows))


@dataclass(frozen=True)
class ComparisonRow:
    """One normalized comparison entry (Fig 5-style)."""

    workload: str
    batch: int
    delay_ratio: float
    energy_ratio: float

    @property
    def speedup(self) -> float:
        return 1.0 / self.delay_ratio if self.delay_ratio else float("inf")

    @property
    def efficiency_gain(self) -> float:
        return 1.0 / self.energy_ratio if self.energy_ratio else float("inf")
