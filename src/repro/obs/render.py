"""Render a recorded span stream as per-batch text breakdowns.

The tracer emits spans post-order as a flat list of dicts with
``id``/``parent`` links (:mod:`repro.obs.trace`).  :func:`build_tree`
reconstructs the forest; :func:`format_trace` renders the flame-style
per-batch text view used by ``repro trace``::

    batch 2  mutations=100                                 35.1ms
      adjust_structure                   2.1ms     6.0%  #
      refine  x1                        21.3ms    60.7%  ############
        iteration  x7                   21.0ms    98.6%  ...
      forward  x1                        9.8ms    27.9%  #####

Repeated same-name siblings (iterations, most commonly) are collapsed
into one line carrying the count and summed duration, so a 100-
iteration run stays readable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = ["build_tree", "format_trace"]

_BAR_WIDTH = 24


def build_tree(events: Iterable[Dict]) -> List[Dict]:
    """Reconstruct the span forest from a flat (post-order) stream.

    Returns root nodes; every node is ``{"name", "tags", "duration",
    "start", "children"}`` with children ordered by start time.
    Orphans (parents evicted from the ring buffer) become roots.
    """
    nodes: Dict[int, Dict] = {}
    roots: List[Dict] = []
    spans = [e for e in events if e.get("type") == "span"]
    for event in spans:
        nodes[event["id"]] = {
            "name": event["name"],
            "tags": event.get("tags", {}),
            "start": event.get("start", 0.0),
            "duration": event.get("duration", 0.0),
            "children": [],
        }
    for event in spans:
        node = nodes[event["id"]]
        parent = nodes.get(event.get("parent"))
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["start"])
    roots.sort(key=lambda node: node["start"])
    return roots


def _collapse(children: List[Dict]) -> List[Dict]:
    """Merge same-name siblings into one entry with a count."""
    merged: Dict[str, Dict] = {}
    order: List[str] = []
    for child in children:
        entry = merged.get(child["name"])
        if entry is None:
            entry = {
                "name": child["name"],
                "count": 0,
                "duration": 0.0,
                "start": child["start"],
                "tags": dict(child["tags"]),
                "children": [],
            }
            merged[child["name"]] = entry
            order.append(child["name"])
        entry["count"] += 1
        entry["duration"] += child["duration"]
        entry["children"].extend(child["children"])
    return [merged[name] for name in order]


def _format_tags(tags: Dict) -> str:
    return "  ".join(
        f"{key}={value}" for key, value in tags.items()
        if key not in ("engine",)
    )


def _format_node(entry: Dict, parent_seconds: float, depth: int,
                 lines: List[str], max_depth: int) -> None:
    fraction = (
        entry["duration"] / parent_seconds if parent_seconds > 0 else 0.0
    )
    bar = "#" * max(1, round(fraction * _BAR_WIDTH)) if fraction else ""
    label = entry["name"]
    if entry["count"] > 1:
        label += f"  x{entry['count']}"
    indent = "  " * depth
    lines.append(
        f"{indent}{label:<{38 - 2 * depth}}"
        f"{entry['duration'] * 1000:>9.2f}ms {fraction * 100:>6.1f}%  {bar}"
    )
    if depth < max_depth:
        for child in _collapse(entry["children"]):
            _format_node(child, entry["duration"], depth + 1, lines,
                         max_depth)


def format_trace(events: Iterable[Dict], title: Optional[str] = None,
                 max_depth: int = 2) -> str:
    """The flame-style text breakdown (see module docstring)."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    roots = build_tree(events)
    if not roots:
        lines.append("(no spans recorded)")
        return "\n".join(lines)
    for root in roots:
        tags = _format_tags(root["tags"])
        header = root["name"] + (f"  {tags}" if tags else "")
        lines.append(f"{header:<47}{root['duration'] * 1000:>9.2f}ms")
        for child in _collapse(root["children"]):
            _format_node(child, root["duration"], 1, lines, max_depth)
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
