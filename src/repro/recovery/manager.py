"""Checkpoint + WAL-tail recovery for the streaming analytics server.

A :class:`RecoveryManager` owns one on-disk state directory::

    state/
      manifest.json           deployment config (algorithm, graph spec)
      quarantine.json         sequence numbers of poison batches
      wal/                    append-only mutation log (repro.recovery.wal)
      checkpoints/
        ckpt-<seq>.ckpt       atomic engine snapshots, newest wins

and composes three guarantees:

1. **Write-ahead** -- :meth:`log_batch` appends every mutation batch to
   the WAL *before* the engine applies it (with bounded
   retry-with-backoff over transient I/O faults);
2. **Periodic atomic checkpoints** -- :meth:`maybe_checkpoint` snapshots
   the engine every ``checkpoint_every`` batches via
   :func:`repro.runtime.checkpoint.save_engine` (temp file, fsync,
   ``os.replace``, every byte under a CRC), rotates retained
   generations, and garbage-collects WAL segments the oldest retained
   checkpoint already covers;
3. **Verified recovery** -- :meth:`recover` restores the newest
   *loadable* checkpoint (corrupt generations are skipped with a
   counter, falling back to older ones) and replays the WAL tail
   through ``apply_mutations``.  Replay applies the exact quarantine
   rule the live server applies, so recovered state is bit-for-bit the
   state an uninterrupted process would hold -- the property
   ``repro fuzz --crash`` proves with the PR-1 oracle.

Metrics flow through :mod:`repro.obs.registry` (``recovery.*`` and
``wal.*``) and recovery work is wrapped in tracer spans.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.engine import GraphBoltEngine
from repro.core.model import IncrementalAlgorithm
from repro.graph.mutation import MutationBatch
from repro.graph.storage import atomic_write
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.recovery.wal import SegmentView, WriteAheadLog
from repro.runtime.checkpoint import (
    load_engine,
    open_checkpoint,
    save_engine,
)
from repro.testing import faults
from repro.testing.faults import InjectedCrash

__all__ = [
    "RecoveryError",
    "RecoveryManager",
    "SegmentGapError",
    "default_poison_check",
    "list_checkpoints",
]

#: A transient ``OSError`` is retried this many times in all, sleeping
#: ``RETRY_BACKOFF_S * 2 ** (attempt - 1)`` seconds between tries.
RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 0.005

#: The one place that knows how a checkpoint generation is named.
_CKPT_NAME = "ckpt-{:020d}.ckpt"
_CKPT_RE = re.compile(r"^ckpt-(\d{20})\.ckpt$")


def list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """``(seq, path)`` of every checkpoint generation in a
    ``checkpoints/`` directory, oldest first (none if it is absent)."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        (int(match.group(1)), os.path.join(directory, match.string))
        for match in map(_CKPT_RE.match, os.listdir(directory)) if match)


class RecoveryError(RuntimeError):
    """Recovery cannot proceed (no loadable checkpoint, bad directory)."""


class SegmentGapError(RecoveryError):
    """The WAL segment sequence has a hole or is reordered.

    Raised by :meth:`RecoveryManager.segment_views` instead of
    letting a shipper (or replayer) silently walk past missing
    records: a gap means some segment was lost, deleted out-of-band,
    or delivered out of order, and continuing would fork the state.
    """


def default_poison_check(values: np.ndarray) -> Optional[str]:
    """The poison predicate: NaNs never mean anything but corruption.

    Infinities are *not* poison by default -- path algorithms legitimately
    report unreachable vertices as ``inf``.
    """
    if values is not None and np.isnan(values).any():
        vertex = int(np.flatnonzero(
            np.isnan(values).reshape(values.shape[0], -1).any(axis=1)
        )[0])
        return f"non-finite values (NaN at vertex {vertex})"
    return None


def _atomic_write_json(path: str, payload) -> None:
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True))


class RecoveryManager:
    """Durability and crash recovery for one server's state directory."""

    def __init__(
        self,
        directory: str,
        checkpoint_every: int = 16,
        retain: int = 3,
        segment_records: int = 256,
        poison_check: Callable[[np.ndarray], Optional[str]]
            = default_poison_check,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if retain < 1:
            raise ValueError("retain must keep at least one generation")
        self.directory = directory
        self.checkpoint_every = checkpoint_every
        self.retain = retain
        self.poison_check = poison_check
        self._checkpoint_dir = os.path.join(directory, "checkpoints")
        os.makedirs(self._checkpoint_dir, exist_ok=True)
        self._remove_stale_temp_files()
        self.wal = WriteAheadLog(os.path.join(directory, "wal"),
                                 segment_records=segment_records)
        self._quarantine_path = os.path.join(directory, "quarantine.json")
        self._manifest_path = os.path.join(directory, "manifest.json")
        self._quarantined: Dict[int, str] = self._load_quarantine()

    def _remove_stale_temp_files(self) -> None:
        """A crash between temp-write and ``os.replace`` leaves ``*.tmp``
        droppings; they are, by construction, not state."""
        for root in (self.directory, self._checkpoint_dir):
            if not os.path.isdir(root):
                continue
            for name in os.listdir(root):
                if name.endswith(".tmp"):
                    os.remove(os.path.join(root, name))

    # ------------------------------------------------------------------
    # Manifest (deployment config for `repro recover`)
    # ------------------------------------------------------------------
    def write_manifest(self, config: Dict) -> None:
        _atomic_write_json(self._manifest_path, config)

    def read_manifest(self) -> Dict:
        if not os.path.exists(self._manifest_path):
            raise RecoveryError(
                f"no manifest.json in {self.directory}; was this "
                f"directory created by `repro serve --wal`?"
            )
        with open(self._manifest_path, encoding="utf-8") as stream:
            return json.load(stream)

    # ------------------------------------------------------------------
    # Quarantine / durable-skip bookkeeping
    # ------------------------------------------------------------------
    #: Reason prefixes that mark an *administrative* skip (admission
    #: pressure) rather than a poison finding.  All skip-marked records
    #: are treated identically by replay; the prefix only keeps the
    #: operator's ledger honest about why each record was dropped.
    _SKIP_PREFIXES = ("shed:", "superseded:")

    @property
    def quarantined(self) -> FrozenSet[int]:
        """Every skip-marked sequence number (poison + shed + superseded)."""
        return frozenset(self._quarantined)

    def quarantine_reasons(self) -> Dict[int, str]:
        return dict(self._quarantined)

    def poison_quarantined(self) -> FrozenSet[int]:
        """Only the sequences quarantined for *poison*, not admission."""
        return frozenset(
            seq for seq, reason in self._quarantined.items()
            if not reason.startswith(self._SKIP_PREFIXES)
        )

    def _load_quarantine(self) -> Dict[int, str]:
        if not os.path.exists(self._quarantine_path):
            return {}
        with open(self._quarantine_path, encoding="utf-8") as stream:
            payload = json.load(stream)
        return {int(seq): reason for seq, reason in payload.items()}

    def _mark_skipped(self, seq: int, reason: str) -> None:
        """Durably record that replay must skip WAL record ``seq``."""
        self._quarantined[int(seq)] = reason
        self._persist_skip_marks()

    def _persist_skip_marks(self) -> None:
        _atomic_write_json(
            self._quarantine_path,
            {str(seq): reason for seq, reason in self._quarantined.items()},
        )
        get_registry().gauge("recovery.quarantine_size").set(
            len(self._quarantined)
        )

    def quarantine(self, seq: int, reason: str) -> None:
        """Durably mark WAL record ``seq`` as poison: replay skips it."""
        self._mark_skipped(seq, reason)
        get_registry().counter("recovery.batches_quarantined").inc()

    def shed(self, seq: int, reason: str = "admission pressure") -> None:
        """Durably mark record ``seq`` as shed by admission control.

        A shed batch was WAL-logged at submit time but never applied;
        marking it keeps replay bit-for-bit with the live loop, which
        also never applied it.  Same mechanism as :meth:`quarantine`,
        distinct ledger entry and metric.
        """
        self._mark_skipped(seq, f"shed: {reason}")
        get_registry().counter("recovery.batches_shed").inc()

    def supersede(self, seq: int, into_seq: int) -> None:
        """Durably mark record ``seq`` as coalesced into ``into_seq``.

        The coalesce admission policy merges queued batches into one
        equivalent batch, logged as its own WAL record; the constituents
        must then be skipped on replay or their mutations would apply
        twice.
        """
        self._mark_skipped(
            seq, f"superseded: coalesced into record {into_seq}"
        )
        get_registry().counter("recovery.batches_superseded").inc()

    # ------------------------------------------------------------------
    # Retry-with-backoff over transient I/O faults
    # ------------------------------------------------------------------
    def _with_retries(self, what: str, action: Callable):
        attempt = 0
        while True:
            try:
                return action()
            except InjectedCrash:
                raise
            except OSError as exc:
                attempt += 1
                get_registry().counter("recovery.retries").inc()
                if attempt >= RETRY_ATTEMPTS:
                    raise
                time.sleep(RETRY_BACKOFF_S * (2 ** (attempt - 1)))
                trace_note = f"{what} attempt {attempt} failed: {exc}"
                with trace.span("recovery.retry", detail=trace_note):
                    pass

    # ------------------------------------------------------------------
    # Write-ahead logging
    # ------------------------------------------------------------------
    def log_batch(self, batch: MutationBatch) -> int:
        """Append one batch to the WAL (retrying transient faults)."""
        return self._with_retries(
            "wal.append", lambda: self.wal.append(batch)
        )

    def import_skip_marks(self, marks: Dict[int, str]) -> int:
        """Merge a writer's durable skip ledger into this one.

        Replication ships the writer's quarantine/shed/supersede map
        alongside segments so a replica's replay skips exactly the
        records the writer skipped.  Existing local entries win (they
        were written for the same reason); returns how many new marks
        were adopted.
        """
        added = 0
        for seq, reason in marks.items():
            seq = int(seq)
            if seq not in self._quarantined:
                self._quarantined[seq] = str(reason)
                added += 1
        if added:
            self._persist_skip_marks()
        return added

    # ------------------------------------------------------------------
    # Segment views (the shipping surface of replication)
    # ------------------------------------------------------------------
    def segment_views(self) -> List[SegmentView]:
        """Every WAL segment's durable records, oldest first, the open
        tail included, gap-checked.

        The contract shipping relies on: consecutive entries are
        sequence-contiguous (``prev.end_seq == next.first_seq``) and
        every file still exists on disk.  A violated contract raises
        :class:`SegmentGapError` naming the missing range -- never
        silently skips it -- because replaying or shipping past a hole
        would fork replica state from the writer's.
        """
        views = self.wal.segment_views()
        previous: Optional[SegmentView] = None
        for segment in views:
            if not os.path.exists(segment.path):
                raise SegmentGapError(
                    f"WAL segment {segment.path} (records "
                    f"[{segment.first_seq}, {segment.end_seq})) vanished "
                    f"from disk; refusing to ship/replay past the gap"
                )
            if previous is not None and segment.first_seq != previous.end_seq:
                raise SegmentGapError(
                    f"WAL segments are not contiguous: "
                    f"{previous.path} ends at seq {previous.end_seq} but "
                    f"{segment.path} starts at seq {segment.first_seq}; "
                    f"records [{previous.end_seq}, {segment.first_seq}) "
                    f"are missing or reordered"
                )
            previous = segment
        return views

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoints(self) -> List[Tuple[int, str]]:
        """``(seq, path)`` of every retained generation, oldest first."""
        return list_checkpoints(self._checkpoint_dir)

    def checkpoint_path(self, seq: int) -> str:
        return os.path.join(self._checkpoint_dir, _CKPT_NAME.format(seq))

    def checkpoint(self, engine: GraphBoltEngine, seq: int) -> str:
        """Snapshot ``engine`` as covering WAL records ``[0, seq)``."""
        with trace.span("recovery.checkpoint", seq=seq):
            path = self._with_retries(
                "checkpoint.write",
                lambda: save_engine(
                    engine, self.checkpoint_path(seq),
                    extra={"recovery_seq": np.int64(seq)},
                ),
            )
        registry = get_registry()
        registry.counter("recovery.checkpoints_written").inc()
        registry.gauge("recovery.last_checkpoint_seq").set(seq)
        self._rotate()
        return path

    def adopt_checkpoint(self, seq: int, blob: bytes) -> str:
        """Install a checkpoint *shipped from a writer* at ``seq``.

        Replicas never snapshot their own engine -- they adopt the
        writer's atomic checkpoints byte-for-byte, so a promoted
        replica's directory is structurally identical to a writer's.
        Written via temp file, fsync and ``os.replace`` like a local
        checkpoint; rotation and WAL GC apply unchanged.  Re-adopting an
        existing generation is an idempotent no-op.
        """
        path = self.checkpoint_path(seq)
        if os.path.exists(path):
            return path
        atomic_write(path, blob, fsync=True)
        registry = get_registry()
        registry.counter("recovery.checkpoints_adopted").inc()
        registry.gauge("recovery.last_checkpoint_seq").set(seq)
        self._rotate()
        return path

    def maybe_checkpoint(self, engine: GraphBoltEngine, seq: int) -> bool:
        """Checkpoint when ``seq``, the WAL position ``engine``'s state
        stands at, crosses a multiple of the cadence past the newest
        generation (skipped records can step it over the multiple)."""
        generations = self.checkpoints()
        newest = generations[-1][0] if generations else 0
        every = self.checkpoint_every
        if seq // every <= newest // every:
            return False
        self.checkpoint(engine, seq)
        return True

    def _rotate(self) -> None:
        """Keep the newest ``retain`` generations; GC covered WAL."""
        generations = self.checkpoints()
        excess = generations[: max(0, len(generations) - self.retain)]
        for _, path in excess:
            os.remove(path)
        if excess:
            get_registry().counter("recovery.checkpoints_rotated").inc(
                len(excess)
            )
        kept = self.checkpoints()
        if kept:
            # Every record below the *oldest retained* generation is
            # restorable from a checkpoint alone; older WAL segments
            # are dead weight.
            self.wal.gc(kept[0][0])

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def restore_engine(
        self, algorithm_factory: Callable[[], IncrementalAlgorithm],
        end_seq: Optional[int] = None, **load_kwargs,
    ) -> Tuple[GraphBoltEngine, int]:
        """Newest loadable checkpoint + WAL-tail replay up to
        ``end_seq`` (default: the WAL head).

        Returns ``(engine, seq)`` where ``seq`` counts every WAL record
        consumed (quarantined ones included -- sequence numbers are
        positional).  A replayed batch that crashes the engine or
        produces poison values is quarantined durably and the replay
        restarts from the checkpoint; each restart grows the quarantine
        set, so the loop terminates.
        """
        registry = get_registry()
        end = self.wal.next_seq if end_seq is None else end_seq
        with trace.span("recovery.recover"):
            engine, base_seq = self._load_newest_checkpoint(
                algorithm_factory, **load_kwargs
            )
            while True:
                verdict = self._replay_tail(engine, base_seq, end)
                if verdict is None:
                    break
                poison_seq, reason = verdict
                self.quarantine(poison_seq, reason)
                registry.counter("recovery.replay_restarts").inc()
                engine, base_seq = self._load_newest_checkpoint(
                    algorithm_factory, **load_kwargs
                )
        seq = max(end, base_seq)
        registry.gauge("recovery.recovered_seq").set(seq)
        return engine, seq

    def _load_newest_checkpoint(self, algorithm_factory, **load_kwargs):
        generations = self.checkpoints()
        registry = get_registry()
        for seq, path in reversed(generations):
            try:
                # One verified open serves the seq check and the engine.
                opened = open_checkpoint(path)
                stored_seq = int(opened.index["extra"].get(
                    "recovery_seq", seq))
                if stored_seq != seq:
                    raise ValueError(
                        f"checkpoint {path} claims seq {stored_seq}, "
                        f"filename says {seq}"
                    )
                engine = load_engine(opened, algorithm_factory(),
                                     **load_kwargs)
            except (ValueError, OSError, KeyError) as exc:
                # A corrupt generation is skipped, not fatal: fall back
                # to the previous one and re-cover the gap from the WAL.
                registry.counter("recovery.checkpoints_rejected").inc()
                with trace.span("recovery.reject_checkpoint",
                                path=path, error=str(exc)):
                    pass
                continue
            return engine, seq
        raise RecoveryError(
            f"no loadable checkpoint under {self._checkpoint_dir} "
            f"({len(generations)} candidate(s) rejected)"
        )

    def _replay_tail(self, engine: GraphBoltEngine, base_seq: int,
                     end_seq: int) -> Optional[Tuple[int, str]]:
        """Apply WAL records in ``[base_seq, end_seq)``; returns a poison
        verdict ``(seq, reason)`` on the first bad batch, else ``None``."""
        registry = get_registry()
        replayed = 0
        with trace.span("recovery.replay", from_seq=base_seq):
            for seq, batch in self.wal.replay(base_seq):
                if seq >= end_seq:
                    break
                if seq in self._quarantined:
                    continue
                faults.hit("recover.replay")
                try:
                    values = engine.apply_mutations(batch)
                except InjectedCrash:
                    raise
                except Exception as exc:  # noqa: BLE001 -- poison finding
                    return seq, f"{type(exc).__name__}: {exc}"
                reason = self.poison_check(values)
                if reason is not None:
                    return seq, reason
                replayed += 1
        registry.counter("recovery.batches_replayed").inc(replayed)
        return None

    def recover(self, algorithm_factory, *, exact_iterations=None,
                **load_kwargs):
        """Restore a :class:`StreamingAnalyticsServer` from this
        directory (checkpoint + WAL tail), attached to this manager."""
        from repro.serving.server import StreamingAnalyticsServer

        engine, seq = self.restore_engine(algorithm_factory,
                                          **load_kwargs)
        return StreamingAnalyticsServer.from_engine(
            engine, algorithm_factory,
            exact_iterations=exact_iterations,
            batches_ingested=seq,
            recovery=self,
        )

    # ------------------------------------------------------------------
    def ensure_initial_checkpoint(self, engine: GraphBoltEngine) -> None:
        """Write generation zero for a *fresh* deployment.

        Recovery needs at least one checkpoint (the WAL holds mutations,
        not the initial graph).  Attaching a fresh server to a directory
        that already holds state is almost certainly an operator error
        -- it would fork the history -- so it is rejected; use
        :meth:`recover` instead.
        """
        if self.checkpoints() or self.wal.next_seq > 0:
            raise RecoveryError(
                f"{self.directory} already contains streaming state; "
                f"recover from it (RecoveryManager.recover / "
                f"`repro recover`) instead of attaching a new server"
            )
        self.checkpoint(engine, seq=0)

    def close(self) -> None:
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"RecoveryManager(dir={self.directory!r}, "
            f"every={self.checkpoint_every}, retain={self.retain}, "
            f"wal_next={self.wal.next_seq})"
        )
