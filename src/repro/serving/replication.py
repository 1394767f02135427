"""WAL-shipped read replicas with epoch fencing.

One **writer** owns ingestion: it applies batches durably through the
recovery stack (segmented WAL + atomic checkpoints) and ships three
kinds of immutable artifacts to N **read replicas** over a transport
(:mod:`repro.serving.transport`):

- **the WAL tail, every round** -- the records ``[shipped, stable)`` as
  raw CRC-guarded lines, shippable once their append returned, so
  freshness follows the batch, not the checkpoint interval.  The
  shipment that ends at the stable boundary also carries the writer's
  engine state (:func:`~repro.runtime.checkpoint.pack_state`);
- **checkpoints, on the writer's cadence** -- ``ckpt-<seq>.ckpt`` files
  adopted byte-for-byte.  Records below a checkpoint ship before it, so
  a caught-up replica adopts it in place; it is also how a fresh
  replica bootstraps and how a lagging one heals past GC'd history;
- **store segments, to links that lack them** -- an mmap writer's
  checkpoints reference its :class:`~repro.graph.storage.MmapStore`
  files instead of inlining edge arrays.  A bootstrapping, lagging or
  NACKed link gets those CRC-guarded files ahead of the checkpoint, so
  bootstrap is a file copy plus a WAL *tail* replay.  A caught-up
  replica derived the same snapshot and binds the reference to its own
  generation after checking every array's dtype, count and CRC32
  (:meth:`~repro.graph.storage.MmapStore.alias_snapshot`).

**Replica replay queues structure and installs state.**  A replica
checks every record CRC and the state CRC of a segment shipment first,
then mirrors each fresh record in its own WAL, queues its structure
change and installs the writer's state: nothing on the live path
refines, so its values equal the writer's by construction.  Its graph
catches up only when read -- by a branch-loop query, or by a checkpoint
adopted in place, whose alias compares it with the writer's generation
-- as one splice per run of pair-disjoint batches
(:meth:`~repro.core.engine.GraphBoltEngine.adopt`; the checkpoint
cadence bounds the ``structure_pending`` queue).  It refines -- through the ordinary
checkpoint + mirror replay -- only when it bootstraps, restarts or is
promoted, and when a delivery would otherwise end with its mirror ahead
of its state (the state-bearing shipment was dropped, NACKed or
reordered: ``replication.state_reloads``).  Its directory (WAL mirror
plus adopted checkpoints) is structurally a writer's, which makes
promotion an ordinary
:meth:`~repro.recovery.manager.RecoveryManager.recover`.

Replay is sequence-driven and idempotent: records below the replica's
position are deduplicated; a record *above* it raises
:class:`ReplicationGapError` (never silently skipped), and the cluster
heals the gap by asking the writer to **resync** from the replica's
position.  The writer's durable skip-marks (poison, sheds, coalesce
supersedes) ship with every segment, so a replica skips exactly the
records the writer skipped.

**Fencing**: every shipment carries the writer's *epoch*.  Promotion
advances the cluster epoch (:class:`EpochAuthority`) and fences every
surviving replica; a deposed writer's late shipments arrive with a
stale epoch and are rejected into a durable ``fence_ledger.jsonl`` --
the ledger the replicated crash fuzzer checks to prove a fenced
writer's segments were provably rejected, not silently dropped.

Failpoints (:mod:`repro.testing.faults`): ``replication.ship`` (crash =
writer dies mid-ship; fault = shipment lost in transit; corrupt = one
payload byte flipped in transit), ``replication.reorder`` (fault =
delivery order swapped), ``replication.receive`` (crash = replica dies
mid-apply; fault = delivery deferred one round -- planted lag),
``replica.query`` (fault = replica fails mid-query, driving router
failover).

**Hostile transports**: every shipment's payload is CRC-guarded end to
end (WAL records, state members, store-segment headers), so a replica
detects a corrupt delivery at apply time and raises
:class:`ShipmentIntegrityError` -- a NACK.  The cluster answers a NACK
the same way it answers a gap: discard the bad shipment, rewind the
link, re-ship.  Retries are bounded by a :class:`RetryPolicy`
(deterministic-jitter exponential backoff, per-link attempt budget);
a link that exhausts its budget has its undelivered range recorded on
the durable :class:`DeadLetterLedger` instead of hanging the writer.
:class:`~repro.serving.chaos.ChaosTransport` wraps any transport with
a seeded drop/duplicate/reorder/delay/corrupt schedule to prove all of
this converges.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.graph.mutation import MutationBatch
from repro.graph.storage import (
    ARRAY_NAMES,
    StoreError,
    atomic_write,
    verify_segment_blob,
)
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.recovery.manager import (
    RecoveryError,
    RecoveryManager,
    SegmentGapError,
    list_checkpoints,
)
from repro.recovery.wal import SegmentView, payload_to_batch
from repro.recovery.wal import _decode_record  # CRC-checked end-to-end
from repro.runtime.checkpoint import (
    pack_state,
    read_store_manifest,
    unpack_state,
    verify_checkpoint_blob,
)
from repro.runtime.deadline import Deadline
from repro.serving.resilience import ResilientAnalyticsServer
from repro.serving.server import QueryResult, StreamingAnalyticsServer
from repro.serving.transport import (
    DeadLetterLedger,
    DirectoryTransport,
    EpochAuthority,
    InProcessTransport,
    ReplicationError,
    ReplicationTransport,
    RetryPolicy,
    Shipment,
    corrupt_shipment,
    read_json_int,
    read_jsonl,
)
from repro.testing import faults
from repro.testing.faults import InjectedFault

__all__ = [
    "ReadReplica",
    "ReplicaUnavailableError",
    "ReplicationCluster",
    "ReplicationGapError",
    "ReplicationWriter",
    "ShipmentIntegrityError",
    "replication_status",
]

_INBOX = "inbox"  # a directory link's spool, inside the replica's directory


class ReplicationGapError(ReplicationError):
    """A delivered shipment starts past the replica's position."""


class ShipmentIntegrityError(ReplicationError):
    """A delivered shipment failed CRC re-verification (bit-rot in
    transit).  The cluster treats it as a NACK: discard, rewind the
    link, re-ship under the retry policy."""


class ReplicaUnavailableError(ConnectionError):
    """The addressed replica is dead or not yet bootstrapped.

    Derives from ``ConnectionError`` (an ``OSError``) so callers that
    absorb transport-ish failures -- the query router's failover path
    above all -- treat a dead replica like any other connection error.
    """


# ----------------------------------------------------------------------
# The writer role
# ----------------------------------------------------------------------
@dataclass
class _Link:
    name: str
    transport: ReplicationTransport
    next_to_ship: int = 0
    checkpoint_shipped: int = -1
    sent: int = 0
    #: Snapshot ids whose store segment files were already shipped on
    #: this link (manifest-mode checkpoints only).
    store_shipped: set = field(default_factory=set)


class ReplicationWriter:
    """Ships a durable writer's WAL tail, state and checkpoints.

    Wraps a :class:`ResilientAnalyticsServer` whose server holds a
    :class:`RecoveryManager` -- the writer role *is* the PR-5 resilient
    ingest path; this class adds only the shipping side.
    """

    def __init__(self, resilient: ResilientAnalyticsServer,
                 epoch: int = 1) -> None:
        if resilient.server.recovery is None:
            raise ReplicationError(
                "a replication writer must be durable (recovery manager "
                "attached): replicas replay its WAL"
            )
        self.resilient = resilient
        self.epoch = epoch
        self._links: Dict[str, _Link] = {}
        self.resyncs = 0
        #: ``(state, blob)``: the last state shipped, packed once for
        #: every link (the state held weakly, like the query memo's).
        self._packed: Optional[tuple] = None

    @property
    def manager(self) -> RecoveryManager:
        return self.resilient.server.recovery

    @property
    def next_seq(self) -> int:
        return self.manager.wal.next_seq

    def links(self) -> List[str]:
        return sorted(self._links)

    def attach(self, name: str, transport: ReplicationTransport,
               start_seq: int = 0, checkpoint_seq: int = -1) -> None:
        """Register one replica link, shipping from ``start_seq`` to a
        replica that holds the checkpoint at ``checkpoint_seq`` (``-1``:
        none -- it bootstraps from one first)."""
        if name in self._links:
            raise ReplicationError(f"link {name!r} already attached")
        self._links[name] = _Link(name=name, transport=transport,
                                  next_to_ship=start_seq,
                                  checkpoint_shipped=checkpoint_seq)

    def shipped_through(self, name: str) -> int:
        """The seq this link's replica has been shipped up to."""
        link = self._links.get(name)
        return link.next_to_ship if link is not None else 0

    def ship(self) -> int:
        """Ship everything new to every link; returns shipments sent."""
        sent = 0
        for name in sorted(self._links):
            sent += self._ship_link(self._links[name])
        return sent

    def resync(self, name: str, from_seq: int) -> int:
        """Heal one link after the replica reported a gap.

        Rewinds the link to the replica's position and re-offers the
        newest checkpoint (in case the missing range was GC'd from the
        WAL); sequence-deduplication on the replica makes any overlap
        harmless.
        """
        link = self._links[name]
        link.next_to_ship = min(link.next_to_ship, from_seq)
        link.checkpoint_shipped = -1
        # A gap may mean store segments were lost in transit too;
        # re-offer them with the checkpoint (the replica's file writes
        # are idempotent, so redelivered segments are harmless).
        link.store_shipped.clear()
        self.resyncs += 1
        get_registry().counter("replication.resyncs").inc()
        return self._ship_link(link)

    # ------------------------------------------------------------------
    def _ship_link(self, link: _Link) -> int:
        manager = self.manager
        segments = manager.segment_views()  # gap-checked, open tail too
        generations = manager.checkpoints()
        newest = generations[-1] if generations else None
        # Records at/above the stable boundary are still queued on the
        # writer (breaker open, burst): shed-oldest could yet skip
        # them, so they must not reach a replica until resolved.
        stable = self.resilient.stable_seq()
        sent = 0
        if newest is not None and link.checkpoint_shipped < 0:
            # A link that has never seen a checkpoint (fresh replica,
            # or post-gap resync) bootstraps from one first: segments
            # hold mutations, not the initial graph.  Prefer the
            # newest checkpoint at-or-below the link position; fall
            # back to the newest overall when that history was GC'd.
            behind = [generation for generation in generations
                      if generation[0] <= link.next_to_ship]
            base = behind[-1] if behind else newest
            sent += self._ship_checkpoint(link, base[0], base[1])
            link.next_to_ship = max(link.next_to_ship, base[0])
        earliest = (segments[0].first_seq if segments
                    else (newest[0] if newest else 0))
        if (newest is not None and earliest > link.next_to_ship
                and newest[0] > link.checkpoint_shipped):
            # The history below the earliest segment was GC'd: the
            # replica can only heal by adopting a checkpoint.
            sent += self._ship_checkpoint(link, newest[0], newest[1])
            link.next_to_ship = max(link.next_to_ship, newest[0])
        if newest is not None and newest[0] > link.checkpoint_shipped:
            # A periodic checkpoint fell due.  Records below it go
            # first, so the replica stands at its seq with a live
            # engine when the blob lands: it adopts in place (its own
            # restart never replays the whole history) and is sent no
            # store file for a snapshot it has just derived itself.
            sent += self._ship_records(link, segments,
                                       min(newest[0], stable))
            if newest[0] <= link.next_to_ship:
                sent += self._ship_checkpoint(link, newest[0], newest[1],
                                              store_files=False)
        return sent + self._ship_records(link, segments, stable)

    def _ship_records(self, link: _Link, segments: List[SegmentView],
                      end_seq: int) -> int:
        """Ship records ``[link.next_to_ship, end_seq)``, one shipment
        per WAL segment touched."""
        sent = 0
        for segment in segments:
            if segment.end_seq <= link.next_to_ship:
                continue
            first = max(segment.first_seq, link.next_to_ship)
            if first >= end_seq:
                break
            end = min(segment.end_seq, end_seq)
            shipment = Shipment(
                kind="segment", epoch=self.epoch, index=link.sent,
                first_seq=first, end_seq=end,
                lines=tuple(segment.lines(first, end)),
                blob=self._state_at(end),
                skip=self.manager.quarantine_reasons(),
            )
            sent += self._send(link, shipment,
                               "replication.segments_shipped")
            link.next_to_ship = end
        return sent

    def _state_at(self, seq: int) -> bytes:
        """The engine state, packed, for the shipment ending at ``seq``
        if that is the stable boundary (else nothing).  Every record
        below the boundary is resolved, so the engine must stand exactly
        there: checked, not assumed."""
        if seq != self.resilient.stable_seq():
            return b""
        server = self.resilient.server
        if server.state_seq > seq or not self.manager.quarantined.issuperset(
                range(server.state_seq, seq)):
            raise ReplicationError(
                f"the writer's state stands at seq {server.state_seq}, "
                f"not at the stable boundary {seq}")
        state = server.engine._state
        if self._packed is None or self._packed[0]() is not state:
            self._packed = (weakref.ref(state), pack_state(state))
        return self._packed[1]

    def _ship_checkpoint(self, link: _Link, seq: int, path: str,
                         store_files: bool = True) -> int:
        with open(path, "rb") as stream:
            blob = stream.read()
        sent = (self._ship_store_segments(link, seq, blob)
                if store_files else 0)
        shipment = Shipment(
            kind="checkpoint", epoch=self.epoch, index=link.sent,
            first_seq=seq, end_seq=seq, blob=blob,
            skip=self.manager.quarantine_reasons(),
        )
        link.checkpoint_shipped = seq
        return sent + self._send(link, shipment,
                                 "replication.checkpoints_shipped")

    def _ship_store_segments(self, link: _Link, seq: int,
                             blob: bytes) -> int:
        """Ship the snapshot-store files a manifest-mode checkpoint
        references, ahead of the checkpoint itself.

        The replica copies each file into its own store spool, so its
        bootstrap opens them as local memmaps instead of replaying the
        writer's whole WAL.  Files for an already-shipped snapshot id
        are not re-sent (structure adjustment mints a fresh id per
        batch, so ids never mutate in place).
        """
        try:
            reference = read_store_manifest(blob)  # the index alone
        except ValueError:
            return 0  # a corrupt checkpoint is rejected on the replica
        if reference is None:  # inline payload: arrays travel inside
            return 0
        snapshot = reference["snapshot"]
        if snapshot in link.store_shipped:
            return 0
        sent = 0
        # Read from this node's own spool, under the names its own
        # table gives the snapshot -- not the root and files the
        # checkpoint recorded: after a promotion the retained
        # checkpoints still name the dead writer's directory, and a
        # snapshot the promoted node bound to files it minted itself
        # (an alias) has no file of the recorded name.
        store = self.resilient.server.graph.store
        held = dict(zip(ARRAY_NAMES, store.segment_files(snapshot)))
        for name in sorted(reference["arrays"]):
            file_name = reference["arrays"][name]["file"]
            with open(os.path.join(store.root, held[name]), "rb") as stream:
                blob = stream.read()
            shipment = Shipment(
                kind="store", epoch=self.epoch, index=link.sent,
                first_seq=seq, end_seq=seq, blob=blob,
                meta={"snapshot": snapshot, "file": file_name},
            )
            sent += self._send(link, shipment,
                               "replication.store_segments_shipped")
        link.store_shipped.add(snapshot)
        return sent

    def _send(self, link: _Link, shipment: Shipment,
              counter: str) -> int:
        link.sent += 1
        with trace.span("replication.ship", link=link.name,
                        kind=shipment.kind, first=shipment.first_seq,
                        end=shipment.end_seq):
            try:
                corrupted = faults.hit_corruptible("replication.ship")
            except InjectedFault:
                # Lost in transit: the writer believes it sent, the
                # replica never sees it -- the planted segment drop.
                get_registry().counter(
                    "replication.shipments_lost").inc()
                return 0
            if corrupted:
                # Planted transit bit-rot: the payload CRC no longer
                # matches, so the replica must NACK at apply time.
                shipment = corrupt_shipment(shipment)
                get_registry().counter(
                    "replication.shipments_corrupted").inc()
            link.transport.send(shipment)
        get_registry().counter(counter).inc()
        return 1

    def __repr__(self) -> str:
        return (
            f"ReplicationWriter(epoch={self.epoch}, "
            f"links={self.links()}, next_seq={self.next_seq})"
        )


# ----------------------------------------------------------------------
# The replica role
# ----------------------------------------------------------------------
class ReadReplica:
    """One read replica: WAL mirror + adopted checkpoints + BSP state.

    Construction doubles as restart: if the directory already holds an
    adopted checkpoint the replica restores engine state from
    checkpoint + mirror tail (the ordinary recovery path) and resumes
    at its durable position; a fresh directory waits for the writer's
    first checkpoint shipment to bootstrap.
    """

    def __init__(
        self,
        name: str,
        directory: str,
        algorithm_factory: Callable,
        inbox: ReplicationTransport,
        *,
        exact_iterations: Optional[int] = None,
        until_convergence: bool = False,
        max_iterations: int = 1000,
        segment_records: int = 256,
    ) -> None:
        self.name = name
        self.directory = directory
        self.algorithm_factory = algorithm_factory
        self.inbox = inbox
        self.alive = True
        self._query_kwargs = dict(
            exact_iterations=exact_iterations,
            until_convergence=until_convergence,
            max_iterations=max_iterations,
        )
        # Never ingesting, a replica never self-checkpoints: it adopts
        # the writer's checkpoints.
        self.manager = RecoveryManager(directory, retain=2,
                                       segment_records=segment_records)
        #: Where shipped snapshot-store segment files land; manifest-
        #: mode checkpoints are restored against this root, so the
        #: replica never touches the writer's store directory.
        self.store_root = os.path.join(directory, "store")
        self._fence_path = os.path.join(directory, "fence.json")
        self._ledger_path = os.path.join(directory, "fence_ledger.jsonl")
        self.fence_epoch = read_json_int(self._fence_path, "epoch")
        self._ledger_seen = {
            (entry["epoch"], entry["index"])
            for entry in self.fence_ledger()
        }
        self.server: Optional[StreamingAnalyticsServer] = None
        if self.manager.checkpoints():
            self._load_from_disk()

    # ------------------------------------------------------------------
    # Positions
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """The replica's durable position: the next record it needs."""
        generations = self.manager.checkpoints()
        base = generations[-1][0] if generations else 0
        return max(self.manager.wal.next_seq, base)

    @property
    def checkpoint_seq(self) -> int:
        """The newest checkpoint this replica restored an engine under
        (``-1``: none yet, it must bootstrap)."""
        generations = self.manager.checkpoints()
        return (generations[-1][0]
                if generations and self.server is not None else -1)

    def lag_behind(self, writer_next_seq: int) -> int:
        return max(0, writer_next_seq - self.next_seq)

    # ------------------------------------------------------------------
    # Fencing
    # ------------------------------------------------------------------
    def fence(self, epoch: int) -> None:
        """Raise the fence: shipments below ``epoch`` are now rejected."""
        if epoch <= self.fence_epoch:
            return
        self.fence_epoch = epoch
        atomic_write(self._fence_path, json.dumps({"epoch": epoch}))

    def fence_ledger(self) -> List[Dict]:
        """Every durably rejected stale-epoch shipment."""
        return read_jsonl(self._ledger_path)

    @property
    def fence_rejections(self) -> int:
        return len(self._ledger_seen)

    def _reject_fenced(self, shipment: Shipment) -> None:
        key = (shipment.epoch, shipment.index)
        if key in self._ledger_seen:
            return  # redelivered duplicate, already on the ledger
        self._ledger_seen.add(key)
        with open(self._ledger_path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps({
                "epoch": shipment.epoch,
                "index": shipment.index,
                "kind": shipment.kind,
                "first_seq": shipment.first_seq,
                "end_seq": shipment.end_seq,
                "fence_epoch": self.fence_epoch,
            }, sort_keys=True) + "\n")
        get_registry().counter("replication.fence_rejections").inc()

    # ------------------------------------------------------------------
    # Applying shipments
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Drain the inbox.

        Raises :class:`ReplicationGapError` when a shipment starts past
        this replica's position (the offending shipment stays peeked so
        the cluster can discard it and request a resync), and lets
        injected crashes/faults propagate -- the cluster layer decides
        whether that means a dead replica or a deferred delivery.
        It may stop with the structure ahead of the state; the cluster
        calls :meth:`settle` once delivery ends.
        """
        while (shipment := self.inbox.peek()) is not None:
            self._apply_shipment(shipment)
            self.inbox.ack()

    def settle(self) -> None:
        """Reload through the recovery path (checkpoint + mirror replay)
        when the mirror stands past the installed state: the shipment
        that carried the state was dropped, NACKed or reordered."""
        server = self.server
        if server is not None and server.state_seq != self.next_seq:
            get_registry().counter("replication.state_reloads").inc()
            with trace.span("replication.reload", replica=self.name):
                self._load_from_disk()

    def discard_pending(self) -> None:
        """Drop the unusable head shipment (out-of-order delivery)."""
        if self.inbox.peek() is not None:
            self.inbox.ack()

    def _require_alive(self) -> None:
        if not self.alive:
            raise ReplicaUnavailableError(
                f"replica {self.name!r} is down"
            )

    def _apply_shipment(self, shipment: Shipment) -> None:
        self._require_alive()
        faults.hit("replication.receive")
        if shipment.epoch < self.fence_epoch:
            self._reject_fenced(shipment)
            return
        if shipment.epoch > self.fence_epoch:
            self.fence(shipment.epoch)
        with trace.span("replication.apply", replica=self.name,
                        kind=shipment.kind, first=shipment.first_seq,
                        end=shipment.end_seq):
            if shipment.skip:
                self.manager.import_skip_marks(dict(shipment.skip))
            if shipment.kind == "store":
                self._receive_store_segment(shipment)
            elif shipment.kind == "checkpoint":
                self._adopt_checkpoint(shipment)
            else:
                self._apply_segment(shipment)

    def _receive_store_segment(self, shipment: Shipment) -> None:
        """Copy one shipped snapshot-store file into the local spool.

        Atomic (temp + ``os.replace``) and idempotent: redelivery
        rewrites identical bytes.  The blob's CRC-guarded header is
        verified *before* the bytes land: a segment corrupted in
        transit is NACKed here instead of poisoning the local spool.
        """
        file_name = shipment.meta["file"]
        try:
            verify_segment_blob(shipment.blob, context=file_name)
        except StoreError as exc:
            raise ShipmentIntegrityError(
                f"replica {self.name!r} rejected store segment "
                f"{file_name!r}: {exc}"
            ) from exc
        os.makedirs(self.store_root, exist_ok=True)
        atomic_write(os.path.join(self.store_root, file_name),
                     shipment.blob)
        get_registry().counter(
            "replication.store_segments_received").inc()

    def _adopt_checkpoint(self, shipment: Shipment) -> None:
        seq = shipment.first_seq
        # Verify BEFORE the blob lands: a checkpoint corrupted in
        # transit must never reach disk, where it would silently
        # poison the local generation ladder -- a later reload would
        # fall back past it and regress the engine while the WAL
        # position stayed forward.
        try:
            reference = verify_checkpoint_blob(
                shipment.blob, context=f"checkpoint seq {seq}"
            )
        except ValueError as exc:
            raise ShipmentIntegrityError(
                f"replica {self.name!r} rejected checkpoint at seq "
                f"{seq}: {exc}"
            ) from exc
        if reference is not None and not all(
                os.path.exists(os.path.join(self.store_root, meta["file"]))
                for meta in reference["arrays"].values()):
            self._bind_own_generation(seq, reference)
        reload_needed = self.server is None or seq > self.next_seq
        if not reload_needed:
            # Adopted in place: the structure catches up with its queue
            # here (a no-op after an alias), so the writer's checkpoint
            # cadence bounds the queue on any store.
            self.server.graph
        self.manager.adopt_checkpoint(seq, shipment.blob)
        if reload_needed:
            # Bootstrapping, or healing past GC'd history: the mirror
            # below the checkpoint is superseded, so reset it to the
            # checkpoint's position and reload the engine.
            wal = self.manager.wal
            wal.seal_active()
            wal.gc(seq)
            if not wal.segments() and wal.next_seq < seq:
                wal.fast_forward(seq)
            try:
                self._load_from_disk()
            except RecoveryError as exc:
                # A manifest-mode checkpoint whose store segments were
                # lost in transit is unloadable; surface it as a gap so
                # the cluster requests a resync (which re-ships the
                # segment files along with the checkpoint).
                raise ReplicationGapError(
                    f"replica {self.name!r} adopted checkpoint at seq "
                    f"{seq} but cannot restore from it: {exc}"
                ) from exc

    def _bind_own_generation(self, seq: int, reference: dict) -> None:
        """A manifest-mode checkpoint came without its store files (the
        writer sends none to a link that holds every record below
        ``seq``): bind the reference to this replica's current
        generation, checked array by array *before* the blob lands.  A
        replica not standing at ``seq`` with a live mmap-backed engine
        reports a gap instead, and the resync ships the files.
        """
        path = self.manager.checkpoint_path(seq)
        if os.path.exists(path):
            return  # redelivery of a checkpoint already adopted
        graph = None if self.server is None else self.server.graph
        store = getattr(graph, "store", None)
        if (seq != self.next_seq or store is None
                or store.kind != "mmap" or graph.snapshot_id is None):
            raise ReplicationGapError(
                f"replica {self.name!r} at seq {self.next_seq} holds "
                f"neither the store segments of the checkpoint at seq "
                f"{seq} nor the generation to derive them from"
            )
        try:
            store.alias_snapshot(reference, graph.snapshot_id, owner=path)
        except StoreError as exc:
            # The generation this replica derived is not the writer's,
            # so its live engine stands on bytes that failed the
            # comparison: drop it, and the resync's checkpoint (shipped
            # with its files) reloads instead of adopting in place.
            self.server = None
            raise ShipmentIntegrityError(
                f"replica {self.name!r} rejected checkpoint at seq "
                f"{seq}: {exc}"
            ) from exc
        get_registry().counter("replication.snapshots_aliased").inc()

    def _apply_segment(self, shipment: Shipment) -> None:
        what = f"segment [{shipment.first_seq}, {shipment.end_seq})"
        if self.server is None:
            # No checkpoint adopted yet: segments cannot bootstrap a
            # replica (the WAL holds mutations, not the initial graph).
            raise ReplicationGapError(
                f"replica {self.name!r} received {what} before any "
                f"checkpoint")
        position, records = self.next_seq, []
        # Transit bit-rot in a record (CRC mismatch, or no longer
        # parses) or in the state: NACK before anything is applied.
        for line in shipment.lines:
            try:
                seq, payload = _decode_record(line)  # CRC re-verified
            except ValueError as exc:
                get_registry().counter(
                    "replication.record_rejections").inc()
                raise ShipmentIntegrityError(
                    f"replica {self.name!r} rejected {what}: {exc}"
                ) from exc
            if seq >= position:
                records.append((seq, payload))
        try:
            state = (unpack_state(shipment.blob, f"state of {what}")
                     if shipment.blob else None)
        except ValueError as exc:
            get_registry().counter("replication.state_rejections").inc()
            raise ShipmentIntegrityError(
                f"replica {self.name!r} rejected {what}: {exc}") from exc
        if not records:
            return  # fully deduplicated redelivery
        if records[0][0] > position:
            raise ReplicationGapError(
                f"replica {self.name!r} is at seq {position} but the "
                f"shipment's first fresh record is {records[0][0]}: "
                f"records [{position}, {records[0][0]}) were lost or "
                f"reordered in transit"
            )
        batches = []
        for seq, payload in records:
            batch = payload_to_batch(payload)
            mirrored = self.manager.log_batch(batch)
            if mirrored != seq:
                raise ReplicationError(
                    f"mirror desync on {self.name!r}: appended at "
                    f"{mirrored}, record says {seq}"
                )
            if seq not in self.manager.quarantined:  # the writer's skips
                batches.append(batch)
        # Structure queued; the state if it came (else a later shipment
        # of this delivery brings it, or settle() reloads).
        self.server.install(batches, state, shipment.end_seq)

    def _load_from_disk(self) -> None:
        engine, seq = self.manager.restore_engine(
            self.algorithm_factory, store_root=self.store_root,
            store_label=self.name,
        )
        self.server = StreamingAnalyticsServer.from_engine(
            engine, self.algorithm_factory,
            batches_ingested=seq,  # no recovery: it never ingests
            **self._query_kwargs,
        )

    # ------------------------------------------------------------------
    # Queries (snapshot-isolated: the branch loop copies state)
    # ------------------------------------------------------------------
    def query(
        self,
        until_convergence: Optional[bool] = None,
        deadline_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> QueryResult:
        self._require_alive()
        if self.server is None:
            raise ReplicaUnavailableError(
                f"replica {self.name!r} has not bootstrapped yet"
            )
        faults.hit("replica.query")
        return self.server.query(
            until_convergence=until_convergence,
            deadline_s=deadline_s, deadline=deadline,
        )

    @property
    def approximate_values(self) -> Optional[np.ndarray]:
        return None if self.server is None else (
            self.server.approximate_values
        )

    @property
    def structure_pending(self) -> int:
        """Batches adopted but not yet in this replica's structure."""
        return (0 if self.server is None
                else self.server.engine.structure_pending)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.alive = False
        self.manager.close()

    #: Simulated process death: state stays on disk, the inbox queues.
    kill = close

    def __repr__(self) -> str:
        return (
            f"ReadReplica(name={self.name!r}, alive={self.alive}, "
            f"next_seq={self.next_seq}, fence={self.fence_epoch})"
        )


# ----------------------------------------------------------------------
# The cluster (writer + replicas + authority + links)
# ----------------------------------------------------------------------
class ReplicationCluster:
    """One writer, N read replicas, and the glue between them.

    ``transport="inproc"`` wires deque links (single process);
    ``"directory"`` spools shipments under each replica's directory so
    tests can exercise the at-least-once redelivery path across
    simulated process boundaries.
    """

    def __init__(
        self,
        resilient: ResilientAnalyticsServer,
        algorithm_factory: Callable,
        root: str,
        replicas: int = 2,
        transport: str = "inproc",
        authority: Optional[EpochAuthority] = None,
        replica_names: Optional[List[str]] = None,
        exact_iterations: Optional[int] = None,
        until_convergence: bool = False,
        max_iterations: int = 1000,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if transport not in ("inproc", "directory"):
            raise ReplicationError(
                f"transport must be 'inproc' or 'directory', "
                f"got {transport!r}"
            )
        self.root = root
        self.algorithm_factory = algorithm_factory
        self.transport_kind = transport
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.dead_letters = DeadLetterLedger(
            os.path.join(root, "dead_letter.jsonl")
        )
        #: Replica name -> finding detail while a scrub has its local
        #: state quarantined; the query router skips these replicas.
        self.integrity_quarantine: Dict[str, str] = {}
        self.integrity_rejections = 0
        self._replica_kwargs = dict(
            exact_iterations=exact_iterations,
            until_convergence=until_convergence,
            max_iterations=max_iterations,
        )
        # Validate the writer BEFORE touching disk: a non-durable
        # server must not leave an epoch.json behind.
        self.writer_node = ReplicationWriter(resilient)
        self.authority = authority if authority is not None else (
            EpochAuthority(os.path.join(root, "epoch.json"))
        )
        self.writer_node.epoch = self.authority.epoch
        self.replicas: Dict[str, ReadReplica] = {}
        self.deposed: List[ReplicationWriter] = []
        self.gap_resyncs = 0
        self._delivering: Optional[str] = None
        names = replica_names if replica_names is not None else [
            f"r{index}" for index in range(replicas)
        ]
        for name in names:
            self._handshake(self._spawn(name, self._make_inbox(name)))

    # ------------------------------------------------------------------
    def _replica_dir(self, name: str) -> str:
        return os.path.join(self.root, "replicas", name)

    def _make_inbox(self, name: str) -> ReplicationTransport:
        if self.transport_kind == "directory":
            return DirectoryTransport(
                os.path.join(self._replica_dir(name), _INBOX)
            )
        return InProcessTransport()

    def _spawn(self, name: str,
               inbox: ReplicationTransport) -> ReadReplica:
        """(Re)start replica ``name`` over ``inbox`` from whatever its
        directory holds, fenced at the cluster epoch or its own durable
        fence, whichever is higher."""
        replica = ReadReplica(
            name, self._replica_dir(name), self.algorithm_factory,
            inbox, **self._replica_kwargs,
        )
        replica.fence(self.authority.epoch)
        self.replicas[name] = replica
        return replica

    def _handshake(self, replica: ReadReplica) -> None:
        """Attach ``replica``'s link at its durable position: the next
        record it needs and the checkpoint it already holds, so a new
        writer incarnation re-ships neither."""
        self.writer_node.attach(replica.name, replica.inbox,
                                start_seq=replica.next_seq,
                                checkpoint_seq=replica.checkpoint_seq)

    # ------------------------------------------------------------------
    @property
    def writer(self) -> ResilientAnalyticsServer:
        return self.writer_node.resilient

    def submit(self, batch: MutationBatch, pump: bool = True) -> int:
        """Submit one batch to the writer; returns the read-your-writes
        token (the writer's durable record count after logging)."""
        self.writer.submit(batch, pump=pump)
        return self.writer_node.next_seq

    def replicate(self) -> None:
        """Ship everything new -- the WAL tail up to the stable
        boundary, plus any checkpoint that fell due -- and deliver it
        to live replicas."""
        self.writer_node.ship()
        self.deliver()
        self.publish_gauges()

    def sync(self) -> bool:
        """Final sync: ship, deliver, then retransmit under the
        cluster's :class:`RetryPolicy` until no live replica lags.

        A delivery round in which a lagging link made no progress
        consumes one retry attempt for that link (the deterministic
        ack-timeout stand-in: a shipment lost in transit advanced the
        writer's watermark but never landed, and if it was the *last*
        shipment no later delivery ever reveals the gap).  Attempts
        reset whenever the link advances, so a slow-but-moving replica
        is never abandoned.  A link that burns its whole budget has
        its undelivered range recorded on the durable dead-letter
        ledger and is left behind -- the writer never hangs on an
        undeliverable replica.  Returns ``True`` when every live
        replica converged.
        """
        self.replicate()
        policy = self.retry_policy
        attempts: Dict[str, int] = {}
        abandoned: set = set()
        while True:
            writer_next = self.writer_node.next_seq
            lagging = [
                (name, replica)
                for name, replica in sorted(self.replicas.items())
                if replica.alive and name not in abandoned
                and replica.lag_behind(writer_next) > 0
            ]
            if not lagging:
                return not abandoned
            before = {name: replica.next_seq
                      for name, replica in lagging}
            for name, replica in lagging:
                attempt = attempts.get(name, 0) + 1
                if attempt > policy.max_attempts:
                    self.dead_letters.record(
                        link=name, first_seq=replica.next_seq,
                        end_seq=writer_next,
                        reason="retry budget exhausted",
                        attempts=attempt - 1,
                    )
                    abandoned.add(name)
                    continue
                attempts[name] = attempt
                delay = policy.backoff(attempt)
                if delay:
                    time.sleep(delay)
                self.writer_node.resync(name, replica.next_seq)
            self.deliver()
            self.publish_gauges()
            for name, replica in lagging:
                if name not in abandoned and replica.next_seq > before[name]:
                    attempts[name] = 0

    def deliver(self) -> None:
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            if not replica.alive:
                continue
            # Deliberately NOT cleared on an exception: when an
            # injected crash kills a replica mid-apply, the driver
            # reads ``delivering`` to learn which one died.
            self._delivering = name
            self._deliver(replica)
            self._delivering = None

    @property
    def delivering(self) -> Optional[str]:
        """The replica last (or currently) being delivered to.

        Stays set when delivery died mid-apply -- the crash-fuzzer
        driver's way of identifying the casualty."""
        return self._delivering

    def _deliver(self, replica: ReadReplica) -> None:
        """Drain ``replica``, resyncing past NACKs and gaps.  However
        delivery ends, short of a crash (a restart reloads anyway), the
        replica settles: it never serves structure ahead of state."""
        attempts = 0
        while True:
            try:
                replica.poll()
                break
            except InjectedFault:
                # Deferred delivery: the shipment stays queued and the
                # replica simply lags this round -- planted lag.
                get_registry().counter(
                    "replication.deliveries_deferred").inc()
                break
            except ShipmentIntegrityError as exc:
                # NACK: the shipment failed its CRC re-check.  Drop it
                # and re-request the range from the writer; a link that
                # keeps delivering garbage past the retry budget is
                # dead-lettered instead of spinning forever.
                attempts += 1
                self.integrity_rejections += 1
                get_registry().counter(
                    "replication.shipments_rejected").inc()
                if attempts > self.retry_policy.max_attempts:
                    self.dead_letters.record(
                        link=replica.name, first_seq=replica.next_seq,
                        end_seq=self.writer_node.next_seq,
                        reason=f"integrity budget exhausted: {exc}",
                        attempts=attempts - 1,
                    )
                    replica.settle()
                    raise
                replica.discard_pending()
                self.writer_node.resync(replica.name, replica.next_seq)
            except (ReplicationGapError, SegmentGapError):
                attempts += 1
                if attempts > self.retry_policy.max_attempts:
                    replica.settle()
                    raise
                replica.discard_pending()
                self.gap_resyncs += 1
                self.writer_node.resync(replica.name, replica.next_seq)
        replica.settle()

    # ------------------------------------------------------------------
    # Failure / failover choreography
    # ------------------------------------------------------------------
    def kill_replica(self, name: str) -> None:
        self.replicas[name].kill()

    def restart_replica(self, name: str) -> ReadReplica:
        """Restart a dead replica from its directory + surviving inbox."""
        old = self.replicas[name]
        if old.alive:
            old.close()
        if self._delivering == name:
            self._delivering = None  # the casualty is being replaced
        return self._spawn(name, old.inbox)

    def restart_writer(self, **resilient_kwargs) -> ResilientAnalyticsServer:
        """Rebuild the writer from its state directory after a crash.

        The recovered writer re-handshakes every link at the replica's
        durable position -- watermarks died with the process, the
        replicas' positions did not.
        """
        manager = self.writer_node.manager
        try:
            manager.close()
        except OSError:
            pass
        return self._recover_writer(manager.directory, resilient_kwargs)

    def _recover_writer(self, directory: str, resilient_kwargs: Dict
                        ) -> ResilientAnalyticsServer:
        """Recover a writer from ``directory`` under the outgoing
        writer's durability settings, at the current epoch, and
        re-handshake every link."""
        old = self.writer_node.manager
        manager = RecoveryManager(
            directory, checkpoint_every=old.checkpoint_every,
            retain=old.retain, segment_records=old.wal.segment_records,
        )
        for key, value in self._replica_kwargs.items():
            resilient_kwargs.setdefault(key, value)
        resilient = ResilientAnalyticsServer.recover(
            manager, self.algorithm_factory, **resilient_kwargs
        )
        self.writer_node = ReplicationWriter(
            resilient, epoch=self.authority.epoch
        )
        for replica in self.replicas.values():
            self._handshake(replica)
        return resilient

    def promote(self, name: str, **resilient_kwargs
                ) -> ResilientAnalyticsServer:
        """Fail over: make replica ``name`` the writer.

        Advances the epoch, fences every surviving replica, recovers a
        full writer from the replica's directory (checkpoint + mirror
        tail -- the directories are structurally identical by design),
        and re-attaches the remaining replicas.  The deposed writer
        object is kept on :attr:`deposed`; any late shipments it sends
        carry the old epoch and land on the replicas' fence ledgers.
        """
        replica = self.replicas.pop(name)
        if not replica.alive:
            self.replicas[name] = replica
            raise ReplicationError(
                f"cannot promote dead replica {name!r}"
            )
        epoch = self.authority.advance()
        for survivor in self.replicas.values():
            if survivor.alive:
                survivor.fence(epoch)
        replica.close()
        # Manifest-mode checkpoints record the old writer's store root;
        # the promoted node holds every snapshot they name in its own
        # spool (shipped ahead of them, or bound to its own files).
        resilient_kwargs.setdefault("store_root", replica.store_root)
        deposed = self.writer_node
        resilient = self._recover_writer(replica.directory,
                                         resilient_kwargs)
        self.deposed.append(deposed)
        get_registry().counter("replication.promotions").inc()
        return resilient

    # ------------------------------------------------------------------
    # Integrity scrubbing (cluster mode)
    # ------------------------------------------------------------------
    def scrub(self, repair: bool = False) -> Dict:
        """Scrub the writer's and every live replica's durable state.

        ``repair=False`` detects and *quarantines*: a replica with any
        finding is pulled from query routing
        (:attr:`integrity_quarantine`) until a repair pass clears it.
        ``repair=True`` heals: standalone repairs first (bit-for-bit
        direction rebuild, covered-WAL garbage collection, checkpoint
        sidelining -- :class:`~repro.recovery.scrub.IntegrityScrubber`),
        then re-ships sidelined store generations from the writer, and
        -- for damage only a fresh bootstrap can fix -- rebuilds the
        replica from the writer wholesale.  Returns
        ``{"writer": ScrubReport, "<replica>": ScrubReport, ...}``.
        """
        from repro.recovery.scrub import IntegrityScrubber

        reports: Dict = {}
        writer_scrubber = IntegrityScrubber(
            self.writer_node.manager.directory
        )
        reports["writer"] = (writer_scrubber.repair() if repair
                             else writer_scrubber.scan())
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            if not replica.alive:
                continue
            if repair:
                report = self._repair_replica(name)
            else:
                report = IntegrityScrubber(
                    replica.directory, store_root=replica.store_root
                ).scan()
            if report.ok or report.repaired:
                self.integrity_quarantine.pop(name, None)
            elif name not in self.integrity_quarantine:
                unhealed = [finding for finding in report.findings
                            if not finding.repaired]
                self.integrity_quarantine[name] = unhealed[0].detail
                get_registry().counter(
                    "scrub.replicas_quarantined").inc()
            reports[name] = report
        self.publish_gauges()
        return reports

    def _repair_replica(self, name: str):
        """Heal one replica, escalating through three repair tiers.

        1. Standalone scrubber repair (direction rebuild works on a
           replica's store spool exactly as on a writer's).
        2. Re-ship from the writer: sidelined store generations are
           restored by a resync -- the writer re-offers the newest
           checkpoint plus its store files, and the replica's
           idempotent file copies overwrite in place (the same-seq
           checkpoint re-adopts without an engine reload).
        3. Full rebuild: a corrupt record in the replica's WAL mirror
           *above* its newest checkpoint cannot be repaired by
           truncation -- that would rewind ``next_seq`` and re-apply
           history into the live engine -- so the replica is wiped and
           re-bootstrapped from the writer.
        """
        from repro.recovery.scrub import IntegrityScrubber

        replica = self.replicas[name]
        scrubber = IntegrityScrubber(replica.directory,
                                     store_root=replica.store_root)
        report = scrubber.repair()
        if report.repaired:
            return report
        unrepaired = [finding for finding in report.findings
                      if not finding.repaired]
        if all(finding.kind == "store" for finding in unrepaired):
            self.writer_node.resync(name, replica.next_seq)
            self.deliver()
            verify = IntegrityScrubber(
                replica.directory, store_root=replica.store_root
            ).scan(write_report=False)
            if verify.ok:
                for finding in unrepaired:
                    finding.repaired = True
                    finding.repair = (
                        (finding.repair + "; " if finding.repair else "")
                        + "re-shipped from writer"
                    )
                scrubber.write_report(report)
                return report
        self._rebuild_replica(name)
        rebuilt = self.replicas[name]
        verify = IntegrityScrubber(
            rebuilt.directory, store_root=rebuilt.store_root
        ).scan(write_report=False)
        if verify.ok:
            for finding in report.findings:
                if not finding.repaired:
                    finding.repaired = True
                    finding.repair = "replica rebuilt from writer"
        scrubber.write_report(report)
        return report

    def _rebuild_replica(self, name: str) -> ReadReplica:
        """Wipe a replica's directory and re-bootstrap it from the
        writer -- the repair of last resort.

        The inbox transport object is retained (spool cursors and any
        chaos wrapper survive; the wipe spares a directory link's spool);
        shipments queued for the old incarnation are drained first,
        bounded by ``pending()`` because a chaos delay plan may keep
        returning ``None`` for one that is still queued."""
        old = self.replicas[name]
        inbox = old.inbox
        if old.alive:
            old.close()
        for _ in range(inbox.pending()):
            if inbox.peek() is None:
                break
            inbox.ack()
        for entry in set(os.listdir(old.directory)) - {_INBOX}:
            path = os.path.join(old.directory, entry)
            (shutil.rmtree if os.path.isdir(path) else os.remove)(path)
        replica = self._spawn(name, inbox)
        self.writer_node.resync(name, 0)
        self.deliver()
        get_registry().counter("replication.replicas_rebuilt").inc()
        return replica

    # ------------------------------------------------------------------
    # Observation surface
    # ------------------------------------------------------------------
    def max_lag(self) -> int:
        """Worst replica staleness in batches (dead replicas count --
        a down replica *is* stale, which is what pages the SLO)."""
        writer_next = self.writer_node.next_seq
        if not self.replicas:
            return 0
        return max(replica.lag_behind(writer_next)
                   for replica in self.replicas.values())

    def staleness(self) -> int:
        """Worst shipped-but-unapplied backlog, in WAL records.

        A healthy replica drains every shipment at the next delivery
        round, so this sits at zero in steady state however far the
        stable boundary holds shipping back -- unlike :meth:`max_lag`,
        which also counts records the writer may not ship yet (queued
        behind an open breaker).  It grows only
        when a replica stops applying what it was sent (dead, wedged,
        or planted-lag) or a shipment was lost in transit, which is
        exactly what the ``replica_staleness`` SLO should page on.
        """
        worst = 0
        for name, replica in self.replicas.items():
            shipped = self.writer_node.shipped_through(name)
            worst = max(worst, shipped - replica.next_seq)
        return worst

    def status(self) -> Dict:
        writer_next = self.writer_node.next_seq
        return {
            "epoch": self.authority.epoch,
            "writer": {
                "directory": self.writer_node.manager.directory,
                "next_seq": writer_next,
                "links": self.writer_node.links(),
            },
            "dead_letters": len(self.dead_letters),
            "integrity_rejections": self.integrity_rejections,
            "integrity_quarantine": dict(self.integrity_quarantine),
            "replicas": {
                name: {
                    "alive": replica.alive,
                    "next_seq": replica.next_seq,
                    "lag_batches": replica.lag_behind(writer_next),
                    "fence_epoch": replica.fence_epoch,
                    "fence_rejections": replica.fence_rejections,
                    "inbox_pending": replica.inbox.pending(),
                    "structure_pending": replica.structure_pending,
                    "quarantined": name in self.integrity_quarantine,
                }
                for name, replica in sorted(self.replicas.items())
            },
        }

    def publish_gauges(self) -> None:
        registry = get_registry()
        writer_next = self.writer_node.next_seq
        for name, replica in self.replicas.items():
            registry.gauge(f"replication.{name}.applied_seq").set(
                replica.next_seq
            )
            registry.gauge(f"replication.{name}.lag_batches").set(
                replica.lag_behind(writer_next)
            )
            registry.gauge(f"replication.{name}.structure_pending").set(
                replica.structure_pending
            )
        registry.gauge("replication.max_lag_batches").set(
            self.max_lag()
        )
        registry.gauge("replication.epoch").set(self.authority.epoch)
        registry.gauge("replication.dead_letter").set(
            len(self.dead_letters)
        )
        registry.gauge("replication.integrity_rejections").set(
            self.integrity_rejections
        )
        registry.gauge("replication.quarantined_replicas").set(
            len(self.integrity_quarantine)
        )

    def observe_replicas(self, emitter) -> None:
        """One wide event per replica (kind ``replica``) per call."""
        summary = self.status()
        for name, info in summary["replicas"].items():
            emitter.emit(
                "replica", name=name, applied_seq=info.pop("next_seq"),
                epoch=summary["epoch"],
                dead_letters=summary["dead_letters"],
                shipments_rejected=summary["integrity_rejections"],
                **info,
            )

    def close(self) -> None:
        for replica in self.replicas.values():
            if replica.alive:
                replica.close()
        self.writer_node.manager.close()

    def __repr__(self) -> str:
        return (
            f"ReplicationCluster(epoch={self.authority.epoch}, "
            f"replicas={sorted(self.replicas)}, "
            f"writer_next={self.writer_node.next_seq})"
        )


# ----------------------------------------------------------------------
# Offline inspection (`repro replication-status`)
# ----------------------------------------------------------------------
def replication_status(root: str) -> Dict:
    """Inspect a replicated state directory tree without serving it.

    Reads the writer's WAL position, the cluster epoch, and each
    replica's durable position, fence epoch, and fence-ledger size from
    disk alone -- usable while nothing is running.
    """
    from repro.recovery.wal import WriteAheadLog

    if not os.path.isdir(root):
        raise ReplicationError(f"{root} is not a directory")

    def position(directory: str) -> Dict:
        wal_dir = os.path.join(directory, "wal")
        next_seq = 0
        if os.path.isdir(wal_dir):
            log = WriteAheadLog(wal_dir)
            next_seq = log.next_seq
            log.close()
        generations = list_checkpoints(
            os.path.join(directory, "checkpoints"))
        newest = generations[-1][0] if generations else -1
        return {
            "next_seq": max(next_seq, max(newest, 0)),
            "newest_checkpoint": newest,
        }

    def scrub_summary(directory: str) -> Optional[Dict]:
        path = os.path.join(directory, "scrub-report.json")
        if not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as stream:
                data = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            return {"ok": False, "error": f"unreadable scrub report: {exc}"}
        return {
            "ok": bool(data.get("ok")),
            "repaired": bool(data.get("repaired")),
            "findings": len(data.get("findings", [])),
        }

    epoch = read_json_int(os.path.join(root, "epoch.json"), "epoch", None)
    writer = position(root)
    writer["scrub"] = scrub_summary(root)
    replicas = {}
    replicas_root = os.path.join(root, "replicas")
    if os.path.isdir(replicas_root):
        for name in sorted(os.listdir(replicas_root)):
            directory = os.path.join(replicas_root, name)
            if not os.path.isdir(directory):
                continue
            info = position(directory)
            info["fence_epoch"] = read_json_int(
                os.path.join(directory, "fence.json"), "epoch")
            info["fence_rejections"] = len(read_jsonl(
                os.path.join(directory, "fence_ledger.jsonl")))
            info["lag_batches"] = max(
                0, writer["next_seq"] - info["next_seq"]
            )
            info["scrub"] = scrub_summary(directory)
            replicas[name] = info
    return {"root": root, "epoch": epoch, "writer": writer,
            "replicas": replicas,
            "dead_letters": len(read_jsonl(
                os.path.join(root, "dead_letter.jsonl")))}
