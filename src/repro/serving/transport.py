"""The replication wire format and link layer.

What travels between a writer and its read replicas, and what it
travels over: the immutable :class:`Shipment`, the single-consumer
in-order :class:`ReplicationTransport` links (in-process deque, spool
directory), the :class:`EpochAuthority` fencing-token source, and the
bounded :class:`RetryPolicy` with its durable :class:`DeadLetterLedger`.
The roles that ship and apply -- writer, replica, cluster -- live in
:mod:`repro.serving.replication`;
:class:`~repro.serving.chaos.ChaosTransport` wraps any link here with a
seeded fault schedule.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph.storage import atomic_write
from repro.obs.registry import get_registry
from repro.testing import faults
from repro.testing.faults import InjectedFault

__all__ = [
    "DeadLetterLedger",
    "DirectoryTransport",
    "EpochAuthority",
    "InProcessTransport",
    "ReplicationError",
    "ReplicationTransport",
    "RetryPolicy",
    "Shipment",
    "corrupt_shipment",
    "read_json_int",
    "read_jsonl",
]


class ReplicationError(RuntimeError):
    """A replication-protocol violation (not a transport fault)."""


def read_json_int(path: str, key: str, default=0):
    """``int(key)`` of a small JSON state file (``default`` if absent)."""
    if not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as stream:
        return int(json.load(stream)[key])


def read_jsonl(path: str) -> List[Dict]:
    """Every entry of an append-only JSONL ledger (none if absent)."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


# ----------------------------------------------------------------------
# The wire format
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shipment:
    """One immutable unit shipped writer -> replica.

    ``kind`` is ``"segment"`` (raw encoded WAL lines for records
    ``[first_seq, end_seq)`` plus the writer's skip-mark ledger, and in
    ``blob`` its packed engine state when ``end_seq`` is its stable
    boundary),
    ``"checkpoint"`` (the atomic archive covering ``[0, first_seq)``,
    byte-for-byte in ``blob``), or ``"store"`` (one snapshot-store
    segment file a manifest-mode checkpoint references, byte-for-byte
    in ``blob``, with its snapshot id and file name in ``meta``).
    ``epoch`` fences deposed writers; ``index`` is the per-link send
    counter, which makes ``(epoch, index)`` a unique delivery id
    replicas use to deduplicate ledger entries on redelivery.
    """

    kind: str
    epoch: int
    index: int
    first_seq: int
    end_seq: int
    lines: Tuple[str, ...] = ()
    blob: bytes = b""
    skip: Mapping[int, str] = field(default_factory=dict)
    meta: Mapping[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        """The envelope: every field but ``blob``, whose length it
        records -- the bytes travel raw beside it, never through JSON."""
        fields = {**self.__dict__, "lines": list(self.lines),
                  "skip": dict(self.skip), "meta": dict(self.meta),
                  "blob_len": len(self.blob)}
        del fields["blob"]
        return json.dumps(fields, sort_keys=True)

    @classmethod
    def from_json(cls, text, blob: bytes = b"") -> "Shipment":
        fields = json.loads(text)
        if fields.pop("blob_len") != len(blob):
            raise ValueError(
                f"shipment envelope does not describe the {len(blob)} blob "
                f"bytes that came with it")
        return cls(**{
            **fields, "blob": blob, "lines": tuple(fields["lines"]),
            "skip": {int(seq): reason
                     for seq, reason in fields["skip"].items()}})


def corrupt_shipment(shipment: Shipment) -> Shipment:
    """``shipment`` with one payload byte flipped -- transit bit-rot.

    The flip lands *inside* the CRC-guarded payload (the middle WAL
    line, or the blob), never in the JSON envelope: a corrupt shipment
    still parses and routes, and only the replica's end-to-end CRC
    re-verification can catch it.  A segment shipment carrying both
    (the writer's state rides with its records) has its blob hit when
    its send index is odd, so each gate sees damage.  WAL lines are
    ASCII, and XOR 0x01 keeps ASCII ASCII, so the flipped line survives
    JSON transport intact.  A shipment with no payload is returned
    unchanged.
    """
    if shipment.lines and not (shipment.blob and shipment.index % 2):
        lines = list(shipment.lines)
        middle = len(lines) // 2
        raw = lines[middle].encode("utf-8")
        lines[middle] = faults.flip_byte(raw).decode(
            "utf-8", errors="surrogateescape"
        )
        return dc_replace(shipment, lines=tuple(lines))
    if shipment.blob:
        return dc_replace(shipment, blob=faults.flip_byte(shipment.blob))
    return shipment


# ----------------------------------------------------------------------
# Transports (one point-to-point link per replica)
# ----------------------------------------------------------------------
class ReplicationTransport:
    """A single-consumer, in-order shipment channel.

    Consumption is two-phase (``peek`` then ``ack``) so a replica that
    dies mid-apply leaves the in-flight shipment queued: redelivery
    plus sequence-deduplication gives at-least-once semantics with
    exactly-once effects.
    """

    def send(self, shipment: Shipment) -> None:
        raise NotImplementedError

    def peek(self) -> Optional[Shipment]:
        raise NotImplementedError

    def ack(self) -> None:
        raise NotImplementedError

    def pending(self) -> int:
        raise NotImplementedError

    def _reorder_gate(self, shipment: Shipment,
                      enqueue: Callable[[Shipment], None]) -> None:
        """Shared send path: the ``replication.reorder`` fault holds a
        shipment back so the next one is delivered first."""
        try:
            faults.hit("replication.reorder")
        except InjectedFault:
            self._held = shipment
            get_registry().counter("replication.reorders_planted").inc()
            return
        enqueue(shipment)
        held = getattr(self, "_held", None)
        if held is not None:
            self._held = None
            enqueue(held)


class InProcessTransport(ReplicationTransport):
    """A deque link for single-process clusters and tests.

    The queue belongs to the *link*, not the replica object, so killed
    replicas can be restarted against the same inbox with unacked
    shipments intact -- exactly like a mailbox on a surviving broker.
    """

    def __init__(self) -> None:
        self._queue: Deque[Shipment] = deque()
        self._held: Optional[Shipment] = None

    def send(self, shipment: Shipment) -> None:
        self._reorder_gate(shipment, self._queue.append)

    def peek(self) -> Optional[Shipment]:
        return self._queue[0] if self._queue else None

    def ack(self) -> None:
        self._queue.popleft()

    def pending(self) -> int:
        return len(self._queue)


class DirectoryTransport(ReplicationTransport):
    """A spool-directory link (``ship-<n>.json``) for cross-process use.

    A spool file is the shipment's one-line JSON envelope followed by
    its raw ``blob`` bytes (the envelope says how many), written
    atomically (temp + ``os.replace``); the consumer cursor is persisted
    (``cursor.json``) so a restarted replica resumes at its first
    unacked shipment.
    """

    #: Consecutive failed decodes of the same spool file before it is
    #: sidelined (renamed to ``*.torn``) instead of retried forever.
    TORN_RETRIES = 3

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._held: Optional[Shipment] = None
        self._cursor_path = os.path.join(directory, "cursor.json")
        self._cursor = read_json_int(self._cursor_path, "acked")
        # Past the cursor and every file still spooled: acked files are
        # gone, so the spool's length would number new ones below them.
        self._send_count = max([self._cursor] + [
            int(name[5:-5]) + 1 for name in self._spool()])
        self._torn_name: Optional[str] = None
        self._torn_streak = 0

    def _spool(self) -> List[str]:
        names = [name for name in os.listdir(self.directory)
                 if name.startswith("ship-") and name.endswith(".json")]
        names.sort(key=lambda name: int(name[5:-5]))
        return names

    def send(self, shipment: Shipment) -> None:
        self._reorder_gate(shipment, self._write)

    def _write(self, shipment: Shipment) -> None:
        name = f"ship-{self._send_count:012d}.json"
        self._send_count += 1
        atomic_write(os.path.join(self.directory, name),
                     (shipment.to_json().encode("utf-8"), b"\n",
                      shipment.blob))

    def peek(self) -> Optional[Shipment]:
        for name in self._spool():
            if int(name[5:-5]) < self._cursor:
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as stream:
                    envelope = stream.readline()
                    # The read is sized from the file -- one exact
                    # allocation -- and from_json checks the envelope's
                    # claim against it: a length that points past the
                    # end of a torn file is a ValueError.
                    rest = os.fstat(stream.fileno()).st_size - len(envelope)
                    shipment = Shipment.from_json(envelope,
                                                  stream.read(rest))
            except (OSError, ValueError, KeyError, TypeError):
                # A torn or partially-written spool file (a producer
                # without our atomic temp+replace discipline, or a
                # filesystem that tore the write).  Skip-and-retry: the
                # poll loop sees an empty inbox this round and comes
                # back; after TORN_RETRIES consecutive failures the
                # file is sidelined as ``*.torn`` so later shipments
                # can flow (the resulting gap heals via resync).
                if name == self._torn_name:
                    self._torn_streak += 1
                else:
                    self._torn_name, self._torn_streak = name, 1
                get_registry().counter(
                    "replication.torn_spool_skips").inc()
                if self._torn_streak >= self.TORN_RETRIES:
                    os.replace(path, path + ".torn")
                    self._torn_name, self._torn_streak = None, 0
                    get_registry().counter(
                        "replication.torn_spool_dropped").inc()
                    continue
                return None
            self._torn_name, self._torn_streak = None, 0
            return shipment
        return None

    def ack(self) -> None:
        spool = [name for name in self._spool()
                 if int(name[5:-5]) >= self._cursor]
        if not spool:
            raise ReplicationError("ack with no pending shipment")
        acked = os.path.join(self.directory, spool[0])
        self._cursor = int(spool[0][5:-5]) + 1
        atomic_write(self._cursor_path,
                     json.dumps({"acked": self._cursor}))
        os.remove(acked)

    def pending(self) -> int:
        return len([name for name in self._spool()
                    if int(name[5:-5]) >= self._cursor])


# ----------------------------------------------------------------------
# Epochs
# ----------------------------------------------------------------------
class EpochAuthority:
    """The cluster's monotonic epoch counter (the fencing token source).

    With a ``path`` the epoch survives process restarts
    (``epoch.json``); without one it is in-memory, which is what the
    single-process fuzzer scenarios use.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self._epoch = 1
        if path is not None and os.path.exists(path):
            self._epoch = read_json_int(path, "epoch")
        elif path is not None:
            self._persist()

    @property
    def epoch(self) -> int:
        return self._epoch

    def advance(self) -> int:
        self._epoch += 1
        self._persist()
        get_registry().gauge("replication.epoch").set(self._epoch)
        return self._epoch

    def _persist(self) -> None:
        if self._path is None:
            return
        os.makedirs(os.path.dirname(os.path.abspath(self._path)),
                    exist_ok=True)
        atomic_write(self._path, json.dumps({"epoch": self._epoch}))


# ----------------------------------------------------------------------
# Retry budget + dead letters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission budget for one replica link.

    The cluster's :meth:`ReplicationCluster.sync` treats a delivery
    round in which a lagging link made no progress as one consumed
    attempt -- the deterministic stand-in for an ack timeout (real time
    never enters the decision, so fuzz runs replay bit-for-bit).  The
    backoff between attempts is real wall-clock sleep, exponential with
    deterministic jitter: the attempt number fully determines the
    schedule, so two runs back off identically.
    """

    max_attempts: int = 8
    backoff_base: float = 0.001
    backoff_factor: float = 2.0
    backoff_cap: float = 0.05

    def backoff(self, attempt: int) -> float:
        """Sleep budget (seconds) before retry ``attempt`` (1-based)."""
        if attempt <= 1:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (attempt - 2)
        rng = np.random.default_rng((0, attempt))
        return min(raw, self.backoff_cap) * (0.5 + 0.5 * rng.random())


class DeadLetterLedger:
    """Durable JSONL record of deliveries that exhausted their budget.

    One entry per abandoned range: the link name, the undelivered
    ``[first_seq, end_seq)`` span, why it was given up on, and how many
    attempts were burned.  The ledger is append-only and survives
    restarts -- ``repro replication-status`` surfaces its size so an
    operator can triage (see docs/operations.md, "Chaos, retry, and
    repair").
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._count = len(self.entries())

    def record(self, link: str, first_seq: int, end_seq: int,
               reason: str, attempts: int) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps({
                "link": link,
                "first_seq": first_seq,
                "end_seq": end_seq,
                "reason": reason,
                "attempts": attempts,
            }, sort_keys=True) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        self._count += 1
        get_registry().counter("replication.dead_letters").inc()

    def entries(self) -> List[Dict]:
        return read_jsonl(self.path)

    def __len__(self) -> int:
        return self._count
