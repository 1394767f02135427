"""Benchmark-side tracing: layers measured from outside.

A :class:`TraceSession` installs the repo's own ``repro.obs.trace.Tracer``
and wraps public entry points *on the instances the workload built*, so
benchmark spans and the spans already inside ``src/`` land in one tree
(name, start, duration, parent, tags).  Nothing under ``src/`` changes;
spans inside the program (WAL fsync, history commit, state copy) are a
later issue.  :class:`NullSession` is the untraced stand-in: it wraps
nothing, so an untraced run executes the program exactly as shipped.

Attribution (:func:`attribute`): a span's self time is its duration
minus its direct children's; each span belongs to a layer key by name,
except that an *opaque* span claims its whole subtree (a replica's
refinement is ``serving.replica_apply``, not ``core.refine``).
"""

from __future__ import annotations

import functools
import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import trace

#: span name -> (layer key, opaque).  The topmost opaque span on the
#: path from the root claims everything beneath it.
LAYERS: Dict[str, Tuple[str, bool]] = {
    "graph.apply_batch": ("graph.adjust", True),
    "adjust_structure": ("graph.adjust", True),
    "refine": ("core.refine", True),
    "forward": ("core.forward", True),
    "query": ("ligra.query_forward", True),
    "recovery.log_batch": ("recovery.wal_append", True),
    "runtime.checkpoint": ("runtime.checkpoint", True),
    "serving.submit": ("serving.admission", False),
    "ingest": ("serving.ingest", False),
    "serving.ship": ("serving.ship", True),
    "serving.poll": ("serving.replica_apply", True),
    "serving.router_query": ("serving.router", False),
    "router.query": ("serving.router", False),
    "serving.restart_writer": ("recovery.restart", True),
}

#: Root span of one loop iteration; its unclaimed time is the remainder.
ROOT = "bench.batch"


class NullSession:
    """Untraced: no tracer, no wrappers, no counters."""

    traced = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def wrap(self, obj, attr: str, name: str) -> None:
        pass


class TraceSession:
    """Tracer installed, instances wrapped, ``os.fsync`` counted."""

    traced = True

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.tracer = trace.Tracer(capacity=capacity)
        self.fsyncs = 0
        self._undo: List = []
        self._previous = None

    def __enter__(self):
        self._previous = trace.install(self.tracer)
        real_fsync = os.fsync

        def counting_fsync(fd):
            self.fsyncs += 1
            return real_fsync(fd)

        os.fsync = counting_fsync
        self._undo.append(lambda: setattr(os, "fsync", real_fsync))
        return self

    def __exit__(self, *exc_info):
        while self._undo:
            self._undo.pop()()
        trace.install(self._previous)
        return False

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper (this
        instance only; the class and every other instance are
        untouched)."""
        original = getattr(obj, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(obj, attr, wrapper)
        self._undo.append(lambda: delattr(obj, attr))

    def write_jsonl(self, path: str) -> int:
        """The spans artifact; returns the number of spans written."""
        events = self.tracer.events()
        with open(path, "w", encoding="utf-8") as stream:
            for event in events:
                stream.write(json.dumps(event, default=str) + "\n")
        return len(events)


# ----------------------------------------------------------------------
# Span-tree analysis
# ----------------------------------------------------------------------
class SpanTree:
    """Self times, layer keys and root membership of a flat span list."""

    def __init__(self, events: Iterable[dict]) -> None:
        self.by_id: Dict[int, dict] = {e["id"]: e for e in events}
        self.self_s: Dict[int, float] = {
            i: e["duration"] for i, e in self.by_id.items()
        }
        self.kids: Dict[int, List[dict]] = {}
        for event in self.by_id.values():
            parent = event["parent"]
            if parent in self.self_s:
                self.self_s[parent] -= event["duration"]
                self.kids.setdefault(parent, []).append(event)
        self._layer: Dict[int, Tuple[Optional[str], bool]] = {}
        self._root: Dict[int, Optional[int]] = {}

    def layer(self, span_id: int) -> Tuple[Optional[str], bool]:
        """``(layer key, claimed by an opaque ancestor-or-self)``."""
        cached = self._layer.get(span_id)
        if cached is not None:
            return cached
        event = self.by_id[span_id]
        parent = event["parent"]
        inherited = (self.layer(parent) if parent in self.by_id
                     else (None, False))
        if inherited[1]:
            result = inherited
        else:
            result = LAYERS.get(event["name"], (None, False))
        self._layer[span_id] = result
        return result

    def root(self, span_id: int) -> Optional[int]:
        """Id of the enclosing :data:`ROOT` span, if any."""
        if span_id in self._root:
            return self._root[span_id]
        event = self.by_id[span_id]
        if event["name"] == ROOT:
            result = span_id
        elif event["parent"] in self.by_id:
            result = self.root(event["parent"])
        else:
            result = None
        self._root[span_id] = result
        return result

    def spans(self, name: str, layer: Optional[str] = None) -> List[dict]:
        """Spans called ``name`` (optionally only those attributed to
        ``layer``), in start order."""
        found = [
            e for i, e in self.by_id.items()
            if e["name"] == name
            and (layer is None or self.layer(i)[0] == layer)
        ]
        found.sort(key=lambda e: e["id"])
        return found

    def children(self, span_id: int, name: str) -> List[dict]:
        return [e for e in self.kids.get(span_id, ())
                if e["name"] == name]

    def descendants(self, span_id: int, name: str) -> List[dict]:
        found, stack = [], [span_id]
        while stack:
            for event in self.kids.get(stack.pop(), ()):
                if event["name"] == name:
                    found.append(event)
                stack.append(event["id"])
        return found


def attribute(tree: SpanTree, roots: Iterable[int]) -> Dict[str, float]:
    """Total self time per layer key inside the given root spans; the
    key ``None`` collects what no layer claims."""
    wanted = set(roots)
    totals: Dict[Optional[str], float] = {}
    for span_id in tree.by_id:
        if tree.root(span_id) in wanted:
            key = tree.layer(span_id)[0]
            totals[key] = totals.get(key, 0.0) + tree.self_s[span_id]
    return totals
