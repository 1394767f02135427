"""A hostile network for replication: seeded, deterministic chaos.

:class:`ChaosTransport` wraps any
:class:`~repro.serving.transport.ReplicationTransport` and applies a
seed-scheduled fault plan to every shipment that passes through it:

- **drop** -- the shipment is swallowed at send time (the writer
  believes it sent);
- **duplicate** -- the shipment is enqueued twice (the replica's
  sequence deduplication and idempotent store-segment copies must make
  the second delivery a no-op);
- **corrupt** -- one payload byte is flipped in transit
  (:func:`~repro.serving.transport.corrupt_shipment`), which the
  replica's end-to-end CRC re-verification must reject with a NACK;
- **reorder** -- the shipment is held back so the next one is
  delivered first (surfacing as a gap the cluster heals by resync);
- **delay** -- the shipment delivers only after ``delay_polls``
  consecutive ``peek`` calls see it (planted lag the retry loop must
  outwait).

Every decision comes from a :class:`numpy.random.Generator` seeded with
``(config.seed, crc32(link_name))``: the same seed replays the same
fault schedule bit-for-bit, which is what lets the chaos fuzzer
(``repro fuzz --crash --chaos``) assert oracle-exact convergence run
after run.  The applied schedule is recorded on
:attr:`ChaosTransport.schedule` so CI can upload it as an artifact.

None of these faults require new recovery machinery -- they exercise
the paths the replication layer already guarantees: at-least-once
delivery with exactly-once effects, gap detection + resync, CRC NACK +
re-ship, and the bounded :class:`~repro.serving.transport.RetryPolicy`
with its dead-letter ledger.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.registry import get_registry
from repro.serving.replication import ReplicationCluster
from repro.serving.transport import (
    ReplicationTransport,
    Shipment,
    corrupt_shipment,
)

__all__ = [
    "ChaosConfig",
    "ChaosTransport",
    "wrap_cluster",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Per-fault-kind probabilities (independent draws, fixed order).

    Rates are probabilities in ``[0, 1]`` evaluated per send (drop,
    duplicate, corrupt, reorder) or per shipment (delay, decided at
    send, enforced at peek).  ``delay_polls`` is how many ``peek``
    calls a delayed shipment stays invisible for.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    delay_polls: int = 2

    @classmethod
    def all_faults(cls, seed: int = 0, rate: float = 0.1) -> "ChaosConfig":
        """All five fault kinds enabled at the same rate -- the
        acceptance configuration of the chaos fuzzer."""
        return cls(seed=seed, drop=rate, duplicate=rate, corrupt=rate,
                   reorder=rate, delay=rate)

class ChaosTransport(ReplicationTransport):
    """Wraps ``inner`` with a deterministic lossy-network fault plan.

    The wrapper is transparent to both endpoints: the writer keeps
    calling ``send`` and the replica keeps ``peek``/``ack``-ing; only
    the weather between them changes.
    """

    def __init__(self, inner: ReplicationTransport, config: ChaosConfig,
                 name: str = "") -> None:
        self.inner = inner
        self.config = config
        self.name = name
        self._rng = np.random.default_rng(
            (config.seed, zlib.crc32(name.encode("utf-8")))
        )
        #: Shipment held back by a pending reorder decision.
        self._reordered: Optional[Shipment] = None
        #: ``(epoch, index) -> remaining peeks`` for delayed shipments.
        self._delay_plan: Dict[Tuple[int, int], int] = {}
        #: Applied-fault log (uploaded as a CI artifact).
        self.schedule: List[Dict] = []
        self.counts: Dict[str, int] = {
            "drop": 0, "duplicate": 0, "corrupt": 0, "reorder": 0,
            "delay": 0, "sent": 0,
        }

    # ------------------------------------------------------------------
    def _record(self, fault: str, shipment: Shipment) -> None:
        self.counts[fault] += 1
        self.schedule.append({
            "link": self.name,
            "fault": fault,
            "kind": shipment.kind,
            "epoch": shipment.epoch,
            "index": shipment.index,
            "first_seq": shipment.first_seq,
            "end_seq": shipment.end_seq,
        })
        get_registry().counter(f"chaos.{fault}").inc()

    def send(self, shipment: Shipment) -> None:
        # Fixed draw order keeps the schedule a pure function of the
        # seed and the send sequence, independent of which faults are
        # enabled downstream of each other.
        draws = self._rng.random(5)
        config = self.config
        self.counts["sent"] += 1
        if draws[0] < config.drop:
            self._record("drop", shipment)
            return
        if draws[2] < config.corrupt:
            shipment = corrupt_shipment(shipment)
            self._record("corrupt", shipment)
        if draws[4] < config.delay:
            self._delay_plan[(shipment.epoch, shipment.index)] = (
                config.delay_polls
            )
            self._record("delay", shipment)
        if draws[3] < config.reorder and self._reordered is None:
            # Hold this one back; it follows the next send (a held
            # shipment is flushed below, so at most one is in limbo).
            self._reordered = shipment
            self._record("reorder", shipment)
            return
        self.inner.send(shipment)
        if draws[1] < config.duplicate:
            self._record("duplicate", shipment)
            self.inner.send(shipment)
        held, self._reordered = self._reordered, None
        if held is not None:
            self.inner.send(held)

    def peek(self) -> Optional[Shipment]:
        shipment = self.inner.peek()
        if shipment is None:
            return None
        key = (shipment.epoch, shipment.index)
        remaining = self._delay_plan.get(key)
        if remaining:
            self._delay_plan[key] = remaining - 1
            return None  # still "in flight": planted lag
        self._delay_plan.pop(key, None)
        return shipment

    def ack(self) -> None:
        self.inner.ack()

    def pending(self) -> int:
        return self.inner.pending() + (1 if self._reordered else 0)

    def flush(self) -> None:
        """Deliver any shipment still held by a reorder decision.

        The reorder fault holds a shipment until the *next* send; on a
        quiescing link there may be no next send, so final syncs flush
        explicitly -- a real network eventually delivers or a retry
        re-sends; limbo forever is not one of the modelled faults.
        """
        held, self._reordered = self._reordered, None
        if held is not None:
            self.inner.send(held)


def wrap_cluster(cluster: ReplicationCluster,
                 config: ChaosConfig) -> List[ChaosTransport]:
    """Put a :class:`ChaosTransport` on every replica link of a live
    cluster (writer side and replica side see the same wrapper).

    Returns the wrappers so tests can inspect schedules and counts.
    """
    wrappers = []
    for name in sorted(cluster.replicas):
        replica = cluster.replicas[name]
        wrapper = ChaosTransport(replica.inbox, config, name=name)
        replica.inbox = wrapper
        link = cluster.writer_node._links[name]
        link.transport = wrapper
        wrappers.append(wrapper)
    return wrappers
