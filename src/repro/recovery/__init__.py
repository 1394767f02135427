"""Fault tolerance: write-ahead logging, checkpointing, crash recovery.

A streaming deployment survives a crash as *checkpoint + WAL tail*:

- :mod:`repro.recovery.wal` -- an append-only, CRC-guarded JSONL log of
  every ingested :class:`~repro.graph.mutation.MutationBatch`, written
  before the engine applies it, with a torn-tail detector that
  truncates (not crashes) on a partial final record;
- :mod:`repro.recovery.manager` -- periodic atomic checkpoints
  (temp file + ``os.replace``, checksum in the payload, retained
  generations), WAL garbage collection, durable poison-batch
  quarantine, and verified recovery back into a running
  :class:`~repro.serving.server.StreamingAnalyticsServer`.

``repro fuzz --crash`` (:mod:`repro.testing.crash`) proves the recovery
path bit-for-bit equivalent to an uninterrupted run at every registered
failpoint; see ``docs/operations.md`` for the operational story.

:mod:`repro.recovery.scrub` closes the loop on silent damage: a
background :class:`~repro.recovery.scrub.IntegrityScrubber` re-checks
every CRC these layers wrote (WAL records, checkpoint payloads,
snapshot-store segments) and -- via ``repro scrub --repair`` -- heals
bit-rot by bit-for-bit direction rebuild, checkpoint-covered garbage
collection, or quarantine + re-ship from a replication writer.
"""

from repro.recovery.manager import (
    RecoveryError,
    RecoveryManager,
    SegmentGapError,
    default_poison_check,
)
from repro.recovery.scrub import (
    IntegrityScrubber,
    ScrubFinding,
    ScrubReport,
    scrub_state_dir,
)
from repro.recovery.wal import (
    SegmentView,
    WALCorruptionError,
    WriteAheadLog,
    batch_to_payload,
    payload_to_batch,
)

__all__ = [
    "IntegrityScrubber",
    "RecoveryError",
    "RecoveryManager",
    "ScrubFinding",
    "ScrubReport",
    "SegmentGapError",
    "SegmentView",
    "WALCorruptionError",
    "WriteAheadLog",
    "batch_to_payload",
    "default_poison_check",
    "payload_to_batch",
    "scrub_state_dir",
]
