"""Wide events: one structured record per applied batch and per query.

A *wide event* is the observability unit favoured by the "observability
2.0" school: instead of scattering a batch's story across logs,
counters, and spans, the serving loop emits **one** record per unit of
work carrying every dimension it knows -- engine, batch kind and size,
queue depth, breaker state, admission policy, deadline budget, the
samples the SLO evaluator saw -- plus a
**trace exemplar**: the span id of the slowest span recorded while the
batch applied, so a latency spike in a dashboard links straight to its
trace (:mod:`repro.obs.trace` ids are deterministic, so the link
survives replay).

Events flow through the existing :class:`~repro.obs.journal.JsonlJournal`
(``{"type": "wide", "kind": "batch" | "query", "seq": n, ...}``) and a
ring-buffered in-memory tail for the live dashboard.  ``seq`` is a
per-emitter monotonic counter; journal replays use it to detect gaps
and reordering (``repro dash --from-journal``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.obs.registry import get_registry

__all__ = ["WideEventEmitter"]


class WideEventEmitter:
    """Builds, journals, and ring-buffers wide events.

    ``journal`` is anything with ``write(record: dict)`` (usually a
    :class:`~repro.obs.journal.JsonlJournal`); the in-memory tail keeps
    the last 512 events.  Every event is also counted in the registry
    (``obs.wide_events``) so export surfaces see emission volume.
    """

    def __init__(self, journal=None) -> None:
        self._journal = journal
        self._tail: Deque[Dict] = deque(maxlen=512)
        self.next_seq = 0

    @property
    def emitted(self) -> int:
        """Total events emitted (>= the tail length)."""
        return self.next_seq

    def emit(self, kind: str, **fields) -> Dict:
        """Emit one wide event; returns the record.

        ``kind`` discriminates the unit of work (``batch``, ``query``);
        ``fields`` carry the dimensions.  The emitter owns ``type`` and
        ``seq`` -- callers must not pass them.
        """
        record = {"type": "wide", "kind": kind, "seq": self.next_seq}
        for key in ("type", "seq"):
            if key in fields:
                raise ValueError(f"field {key!r} is emitter-owned")
        record.update(fields)
        self.next_seq += 1
        self._tail.append(record)
        if self._journal is not None:
            self._journal.write(record)
        get_registry().counter("obs.wide_events").inc()
        return record

    def events(self) -> List[Dict]:
        """The in-memory tail, oldest first."""
        return list(self._tail)
