"""The JSONL journal sink.

One JSON object per line, written as records arrive and flushed per
record so a crashed or killed process (a fuzz worker, a CI job) still
leaves a readable journal behind.  The journal accepts *any* dict with
a ``"type"`` discriminator; the repository emits:

``span``    finished tracer spans (:mod:`repro.obs.trace`)
``run``     one header per CLI run (engine, algorithm, graph spec)
``batch``   per-batch latency/work records (``repro run --json``)
``repro``   fuzz-failure markers preceding a replayed trace dump

See ``docs/observability.md`` for the field-level schema.
"""

from __future__ import annotations

import json
from typing import Dict, List

__all__ = ["JsonlJournal", "read_journal"]


def _default(value):
    """Serialise numpy scalars and other ``item()``-bearing types."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class JsonlJournal:
    """Append-only JSONL writer over a path or an existing stream."""

    def __init__(self, stream, close_on_exit: bool = False) -> None:
        self._stream = stream
        self._close_on_exit = close_on_exit
        self.records_written = 0

    @classmethod
    def open(cls, path: str, append: bool = False) -> "JsonlJournal":
        mode = "a" if append else "w"
        return cls(open(path, mode, encoding="utf-8"), close_on_exit=True)

    def write(self, record: Dict) -> None:
        self._stream.write(
            json.dumps(record, default=_default, separators=(",", ":"))
        )
        self._stream.write("\n")
        flush = getattr(self._stream, "flush", None)
        if flush is not None:
            flush()
        self.records_written += 1

    def close(self) -> None:
        if self._close_on_exit:
            self._stream.close()

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: str) -> List[Dict]:
    """Load a journal's records, in order."""
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]
