"""Rendering experiment results as paper-style tables."""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence

__all__ = ["format_table", "save_results", "results_dir"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Monospace table with per-column width fitting."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in cells)) if cells
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def results_dir() -> str:
    """Directory where benchmark drivers drop their JSON results."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def save_results(name: str, payload: Dict) -> str:
    """Persist one experiment's results as JSON; returns the path."""
    path = os.path.join(results_dir(), f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
    return path
