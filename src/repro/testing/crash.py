"""The crash-recovery fuzzer (``repro fuzz --crash``).

Property under test: **recovery is lossless**.  For a seeded workload,
killing any process of the serving stack at *any* failpoint and
restarting it from disk (checkpoint + WAL tail, :mod:`repro.recovery`)
must leave every surviving node's main-loop values **bit-for-bit
equal** to an uninterrupted run of the same schedule -- the PR-1 oracle
comparison with tolerance ``0.0``.

One table, one driver: a :class:`Scenario` row names a topology, the
failpoint to arm and optional hooks; :func:`run_scenario` builds the
stack, drives the schedule, absorbs each kill by restarting from disk
and judges every surviving node on one ladder (:func:`_verdict`);
:data:`SWEEPS` groups the rows into the sweeps that ``repro fuzz
--crash --sweep NAME`` runs through :func:`sweep` (and
``tests/recovery/test_crash_equivalence.py`` row by row);
:func:`run_crash_fuzz` is the random campaign over the durable sites.
A failing round keeps its state directory plus a replay command.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.graph.mutation import MutationBatch
from repro.graph.storage import ARRAY_NAMES, MmapStore, StoreError
from repro.obs.registry import scoped_registry
from repro.recovery.manager import RecoveryManager
from repro.runtime.deadline import StepDeadline
from repro.serving.chaos import ChaosConfig, ChaosTransport, wrap_cluster
from repro.serving.replication import ReplicationCluster
from repro.serving.resilience import BreakerConfig, ResilientAnalyticsServer
from repro.serving.server import StreamingAnalyticsServer
from repro.serving.transport import RetryPolicy
from repro.testing.faults import InjectedCrash, scoped_failpoints
from repro.testing.oracle import compare_snapshots
from repro.testing.workloads import Workload, generate_workload

__all__ = [
    "CrashRound",
    "FAULT_KINDS",
    "SWEEPS",
    "Scenario",
    "run_crash_fuzz",
    "run_plant_fault",
    "run_row",
    "run_scenario",
    "sweep",
]

#: Main-loop window for fuzz servers; small keeps refinement histories
#: (and therefore rounds) cheap while still exercising multi-iteration
#: dependency state.
APPROX_ITERATIONS = 3

#: Sites whose hit budget scales with the schedule length (they fire
#: once per ingested batch) versus rare sites.
_PER_BATCH_SITES = ("wal.append", "wal.append.torn", "engine.refine")

#: WAL records per segment: small enough that durable rounds rotate and
#: cluster rounds seal segments to ship; resilient keeps the default.
_SEGMENT_RECORDS = {"durable": 4, "resilient": 256, "cluster": 2}

#: The lossy-transport fault kinds; the chaos rows inject each at
#: :data:`CHAOS_RATE` and the chaos sweep requires every one to fire.
FAULT_KINDS = ("drop", "duplicate", "corrupt", "reorder", "delay")
CHAOS_RATE = 0.1

#: What a chaos round tallies from the replication counters: NACKs at
#: the two CRC gates a corrupt segment shipment can fail (records, the
#: writer's state -- the sweep requires both to fire) and the reloads a
#: lost state forces.
_CHAOS_COUNTERS = {"record_nacks": "replication.record_rejections",
                   "state_nacks": "replication.state_rejections",
                   "state_reloads": "replication.state_reloads"}
NACK_GATES = ("record_nacks", "state_nacks")

#: Keep fuzz rounds fast: the production attempt budget and backoff
#: shape, toy delays (real time never enters a retry decision).
_FAST_RETRY = RetryPolicy(max_attempts=8, backoff_base=0.0001,
                          backoff_factor=2.0, backoff_cap=0.002)


@dataclass(frozen=True)
class Scenario:
    """One row of the kill-and-recover table."""

    name: str
    #: ``durable`` server (storage kills: over an ``mmap`` store) |
    #: ``resilient`` admission layer on it | ``cluster`` of replicas.
    topology: str
    #: The ``(site, kind, hit)`` failpoint planted before the schedule
    #: runs; ``None`` when the failure is pure choreography.
    arm: Optional[Tuple[str, str, int]] = None
    #: Replaces the default "feed every batch, then final sync" drive.
    choreography: Optional[Callable[["_Run"], None]] = None
    #: Run while the stack is still live; returns the detail of a
    #: violated extra invariant, ``""`` when it holds.
    invariant: Optional[Callable[["_Run"], str]] = None
    replicas: int = 2
    #: Snapshot store under the writer's graph: ``heap`` | ``mmap``.
    store: str = "heap"
    #: Added to the sweep seed, so one sweep can carry several seeds.
    seed_offset: int = 0
    #: The writer's checkpoint cadence, in batches.
    checkpoint_every: int = 2
    #: A row whose planted failure never fires proved nothing; only
    #: the random campaign, whose hits may lie beyond the schedule,
    #: clears this.
    must_fire: bool = True


@dataclass
class CrashRound:
    """The verdict of one scenario on one seeded workload."""

    seed: int
    scenario: str
    workload: str
    #: The armed ``(site, kind, hit)``; ``None`` for pure choreography.
    arm: Optional[Tuple[str, str, int]] = None
    crashes: int = 0
    fired: bool = False
    ok: bool = False
    detail: str = ""
    quarantined: int = 0
    torn_truncated: int = 0
    #: mmap rows: files under the store root no checkpoint on disk can
    #: reach (:func:`_debris`), counted at each restart -- what a kill
    #: inside a seal leaves for a later ``compact()``.
    debris_files: int = 0
    #: Chaos rows: injected faults per kind, the applied fault
    #: schedule, the replicas' answers to it (``_CHAOS_COUNTERS``), the
    #: dead-letter ledger size.
    faults: Dict[str, int] = field(default_factory=dict)
    schedule: List[dict] = field(default_factory=list)
    answers: Dict[str, int] = field(default_factory=dict)
    dead_letters: int = 0

    def summary(self) -> str:
        status = "OK" if self.ok else f"MISMATCH ({self.detail})"
        armed = " {1}@{0}#{2}".format(*self.arm) if self.arm else ""
        facts = {"crashes": self.crashes, "fired": self.fired,
                 "torn": self.torn_truncated}
        if self.debris_files:
            facts["debris"] = self.debris_files
        if self.faults:
            facts.update(self.faults, **self.answers,
                         dead_letters=self.dead_letters)
        body = " ".join(f"{key}={value}" for key, value in facts.items())
        return f"seed={self.seed} {self.scenario}{armed} [{body}] {status}"


def _values(node) -> np.ndarray:
    return np.asarray(node.approximate_values, dtype=np.float64).copy()


def _debris(store_root: str) -> List[str]:
    """What a kill inside a seal leaves under a store root that no
    checkpoint on disk can reach: temp files, and segments of no
    generation a surviving checkpoint pins (the on-disk manifest names
    none of them, or only under a pin whose owner never landed)."""
    store = MmapStore(store_root)  # reads the on-disk manifest
    kept = {name for snapshot, owners in store._manifest["pins"].items()
            if any(map(os.path.exists, owners))
            for name in store.segment_files(snapshot)}
    return sorted(name for name in os.listdir(store_root)
                  if name.endswith(".tmp")
                  or (name.endswith(".seg") and name not in kept))


def _uninterrupted_values(workload: Workload) -> np.ndarray:
    """Ground truth: the same schedule with no durability layer at all."""
    server = StreamingAnalyticsServer(
        workload.profile.factory, workload.build_graph(),
        approx_iterations=APPROX_ITERATIONS,
    )
    for batch in workload.schedule:
        server.ingest(batch)
    return _values(server)


def _workload_with_batches(seed: int, minimum: int) -> Workload:
    """First seeded workload with a schedule long enough that every
    site's chosen hit count is actually reachable."""
    for offset in range(64):
        workload = generate_workload(seed + offset,
                                     algorithms=["pagerank"],
                                     max_vertices=24, max_batches=6)
        if len(workload.schedule) >= minimum:
            return workload
    raise RuntimeError("no seeded workload with a long enough schedule")


# ----------------------------------------------------------------------
# The driver: build, feed, kill, restart from disk, collect
# ----------------------------------------------------------------------
@dataclass
class _Run:
    """The live half of one round: what the driver starts, feeds,
    kills and restarts.  ``node`` is the topology's outermost serving
    object (``None`` while the process is dead).  The base is the
    ``durable`` topology: ``ingest`` each batch; a kill drops the
    server with its manager.  Subclasses refine it."""

    scenario: Scenario
    workload: Workload
    state_dir: str
    checkpoint_every: int
    round: CrashRound
    node: object = None

    @property
    def schedule(self) -> List[MutationBatch]:
        return self.workload.schedule

    @property
    def admission(self) -> dict:
        # No degraded window: rounds pin bit-for-bit equality, so probe
        # applies must use the same window as the ground-truth loop.
        return dict(
            queue_capacity=len(self.schedule) + 2, admission="block",
            breaker=BreakerConfig(cooldown_submits=2,
                                  degraded_approx_iterations=None),
        )

    def attach(self):
        """Start the topology over ``state_dir``: fresh the first time,
        from checkpoint + WAL tail once the directory holds state --
        exactly like a restarted process.  The only place a serving
        stack is built."""
        topology = self.scenario.topology
        factory = self.workload.profile.factory
        manager = RecoveryManager(
            self.state_dir, checkpoint_every=self.checkpoint_every,
            retain=2, segment_records=_SEGMENT_RECORDS[topology],
        )
        if manager.checkpoints():
            server = manager.recover(factory)
        else:
            graph = self.workload.build_graph()
            if self.scenario.store == "mmap":
                graph = MmapStore(self.store_root).publish(graph)
            server = StreamingAnalyticsServer(
                factory, graph,
                approx_iterations=APPROX_ITERATIONS, recovery=manager,
            )
        if topology == "durable":
            return server
        resilient = ResilientAnalyticsServer(server, **self.admission)
        if topology == "resilient":
            return resilient
        return ReplicationCluster(
            resilient, factory, self.state_dir,
            replicas=self.scenario.replicas, retry_policy=_FAST_RETRY,
        )

    def survive(self, action: Callable):
        """Run ``action`` to completion, playing the operating system:
        an :class:`InjectedCrash` discards the live object and the
        retry rebuilds it *from disk only*.  The only place a kill is
        absorbed."""
        while True:
            try:
                if self.node is None:
                    self.node = self.attach()
                return action()
            except InjectedCrash as crash:
                self.round.crashes += 1
                self.restart(crash)

    def drive(self) -> None:
        """The default choreography: feed every batch, then finish."""
        while self.survive(self.step):
            pass
        self.survive(self.finish)

    def finish(self) -> None:
        pass

    @property
    def manager(self) -> RecoveryManager:
        return self.node.recovery

    @property
    def store_root(self) -> str:
        return os.path.join(self.state_dir, "store")

    def step(self) -> bool:
        done = self.node.batches_ingested
        if done < len(self.schedule):
            self.node.ingest(self.schedule[done])
        return done < len(self.schedule)

    def restart(self, crash: Optional[InjectedCrash]) -> None:
        if self.node is not None:
            self.manager.close()
        self.node = None
        if self.scenario.store == "mmap":
            self.round.debris_files += len(_debris(self.store_root))

    def harvest(self) -> Tuple[Dict[str, np.ndarray], int]:
        """Shut down; return every node's values and the residual lag
        (a lone server trails nobody).  Next to the live values goes
        the ledger proof: every WAL record is applied or durably
        skip-marked, so a fresh recovery from the same directory must
        land on the same state -- a lost queued record diverges here."""
        nodes = {"server": _values(self.node)}
        self.restart(None)
        nodes["disk replay"] = self.survive(lambda: _values(self.node))
        self.restart(None)
        return nodes, 0


class _ResilientRun(_Run):
    """The admission layer, fed so every one of its sites executes:
    batches go through ``submit`` (``admission.enqueue``; WAL-logged
    before queueing), each is followed by a deadline-budgeted query
    (``query.deadline``), and after the first batch the breaker is
    tripped with a short cooldown so deferred submissions queue behind
    an OPEN breaker and a half-open probe fires (``breaker.probe``).

    Submit-time logging makes queued-but-unapplied batches recoverable
    -- replay applies them in sequence order, the order the live FIFO
    queue would have -- and batch application is idempotent, so
    at-least-once resubmission after a kill cannot fork the state.
    """

    submitted = 0
    tripped = False

    @property
    def manager(self) -> RecoveryManager:
        return self.node.server.recovery

    def step(self) -> bool:
        if self.submitted >= len(self.schedule):
            return False
        self.node.submit(self.schedule[self.submitted], pump=False)
        self.submitted += 1
        if not self.tripped:
            self.node.pump()
            self.node.breaker.trip("sweep scenario")
            self.tripped = True
        self.node.pump()
        self.node.query(deadline=StepDeadline(1))
        return True

    def finish(self) -> None:
        self.node.drain()
        self.node.query(deadline=StepDeadline(1))


class _ClusterRun(_Run):
    """A writer shipping its WAL tail + checkpoints to read replicas;
    a kill restarts whichever process died, in place."""

    #: Whether the final sync converged every live replica.
    converged = True

    @property
    def manager(self) -> RecoveryManager:
        return self.node.writer_node.manager

    def step(self) -> bool:
        done = self.node.writer.server.batches_ingested
        if done < len(self.schedule):
            self.node.submit(self.schedule[done])
            self.node.replicate()
        return done < len(self.schedule)

    def finish(self) -> None:
        self.converged = self.node.sync()

    def restart(self, crash: InjectedCrash) -> None:
        # A kill inside a replica's apply takes that replica down --
        # unless it is the writer's ship site, reached through a resync
        # in the middle of a delivery.
        casualty = self.node.delivering
        if casualty is not None and crash.site != "replication.ship":
            self.node.kill_replica(casualty)
            self.node.restart_replica(casualty)
        else:
            self.node.restart_writer(**self.admission)

    def harvest(self) -> Tuple[Dict[str, np.ndarray], int]:
        survivors = {name: replica for name, replica
                     in sorted(self.node.replicas.items()) if replica.alive}
        writer_next = self.node.writer_node.next_seq
        lag = max(replica.lag_behind(writer_next)
                  for replica in survivors.values())
        nodes = {"writer": _values(self.node.writer)}
        nodes.update((name, _values(replica))
                     for name, replica in survivors.items())
        self.node.close()
        return nodes, lag


_RUNS = {"durable": _Run, "resilient": _ResilientRun, "cluster": _ClusterRun}


def _verdict(run: _Run, nodes: Dict[str, np.ndarray],
             expected: np.ndarray, lag: int, extra: str) -> str:
    """The one ladder every server round is judged by: the detail of
    the first failed rung, ``""`` when the round is equivalent."""
    for name, values in nodes.items():
        verdict = compare_snapshots(values, expected, tolerance=0.0)
        if verdict is not None:
            kind, detail, _ = verdict
            return f"{name} diverged -- {kind}: {detail}"
    if run.scenario.must_fire and not run.round.fired:
        return "planted failure never fired"
    if lag > 0:
        return f"replica(s) still lag the writer by {lag} after final sync"
    if run.round.quarantined:
        return (f"{run.round.quarantined} batch(es) quarantined on a "
                f"healthy workload")
    return extra


def run_scenario(
    scenario: Scenario,
    workload: Workload,
    state_dir: str,
    seed: Optional[int] = None,
    checkpoint_every: int = 2,
) -> CrashRound:
    """Run one scenario on one workload and judge it bit-for-bit.

    ``seed`` is what the round is reported under and chaos links draw
    their fault plan from; a sweep's may be earlier than the workload's
    own (:func:`_workload_with_batches` skips short schedules)."""
    round_ = CrashRound(
        seed=workload.seed if seed is None else seed,
        scenario=scenario.name, workload=workload.describe(),
        arm=scenario.arm,
    )
    expected = _uninterrupted_values(workload)
    run = _RUNS[scenario.topology](scenario, workload, state_dir,
                                   checkpoint_every, round_)
    with scoped_failpoints() as registry:
        if scenario.arm is not None:
            site, kind, hit = scenario.arm
            registry.arm(site, kind=kind, hit=hit)
            if site == "recover.replay":
                # Only executes during recovery, so also plant a first
                # kill to get a recovery going.
                registry.arm("engine.refine", kind="crash", hit=1)
        run.survive(lambda: None)  # start
        (scenario.choreography or _Run.drive)(run)
        round_.fired = round_.fired or bool(registry.fired)
        extra = scenario.invariant(run) if scenario.invariant else ""
        round_.quarantined = len(run.manager.poison_quarantined())
        round_.torn_truncated = run.manager.wal.torn_records_truncated
        nodes, lag = run.harvest()
    round_.detail = _verdict(run, nodes, expected, lag, extra)
    round_.ok = not round_.detail
    return round_


def _drop_healed(run: _ClusterRun) -> str:
    if run.node.gap_resyncs + run.node.writer_node.resyncs < 1:
        return "segment drop fired but no resync healed it"
    return ""


def _stale_writer(run: _ClusterRun) -> None:
    """Replicate a prefix, run the writer ahead un-replicated, promote
    a replica, then let the deposed writer ship its tail late."""
    cluster = run.node
    prefix = max(2, len(run.schedule) // 2)
    for batch in run.schedule[:prefix]:
        cluster.submit(batch)
        cluster.replicate()
    for batch in run.schedule[prefix:]:
        cluster.submit(batch)
    cluster.promote("r0", **run.admission)
    deposed = cluster.deposed[-1]
    deposed.ship()
    cluster.deliver()
    # The promoted writer recovered every *replicated* batch; the
    # client (us) re-drives the unacknowledged tail.
    run.drive()


def _late_shipments_fenced(run: _ClusterRun) -> str:
    """Every late shipment from the deposed writer must land on the
    survivor's durable fence ledger with a stale epoch -- rejected
    *provably*, not dropped."""
    ledger = run.node.replicas["r1"].fence_ledger()
    epoch = run.node.authority.epoch
    run.round.fired = bool(ledger)
    if not ledger:
        return ("deposed writer's late shipments left no fence-ledger "
                "entries on the survivor")
    if any(entry["epoch"] >= epoch for entry in ledger):
        return f"fence ledger holds a non-stale epoch (>= {epoch})"
    return ""


def _no_resyncs(run: _ClusterRun) -> str:
    resyncs = run.node.gap_resyncs + run.node.writer_node.resyncs
    return f"{resyncs} resync(s) on a lossless link" if resyncs else ""


def _kill_past_checkpoint(run: _ClusterRun) -> None:
    """Kill the writer right after a tail shipment and before its next
    checkpoint: the replicas hold a record the writer's newest
    checkpoint does not cover, so the recovered writer must re-handshake
    at *their* positions (its own WAL tail covers the difference)."""
    cluster = run.node
    cluster.submit(run.schedule[0])
    cluster.replicate()
    newest = cluster.writer_node.manager.checkpoints()[-1][0]
    run.round.fired = all(replica.next_seq > newest
                          for replica in cluster.replicas.values())
    run.round.crashes += 1
    cluster.restart_writer(**run.admission)
    run.drive()


def _blob_only_restart(run: _ClusterRun) -> None:
    """Over an mmap writer: replicas adopt a checkpoint that came
    without its store files (bound to their own generation), then r0 is
    killed, restarted from its own directory, and promoted."""
    cluster = run.node
    for batch in run.schedule[:run.checkpoint_every]:
        cluster.submit(batch)
        cluster.replicate()
    replica = cluster.replicas["r0"]
    store = replica.server.graph.store
    # Fired = r0 holds the checkpoint's snapshot over files it minted.
    run.round.fired = any(
        not snapshot.startswith(store.label) and all(
            name.startswith(store.label)
            for name in store.segment_files(snapshot))
        for snapshot in store.snapshot_ids()
    )
    cluster.kill_replica("r0")
    run.round.crashes += 1
    cluster.restart_replica("r0")
    cluster.promote("r0", **run.admission)
    run.drive()


def _power_loss(run: _ClusterRun) -> None:
    """Cut the power to every node at once, three batches past a
    mid-stream checkpoint.  What that may do to data never fsynced is
    planted by hand: every file under a store root that the *on-disk*
    manifest does not name (a seal's temps or unnamed files) is truncated
    to zero length, every WAL segment and checkpoint cut to the size
    its last fsync covered, and a checkpoint no fsync of
    ``checkpoints/`` named is gone.  The writer's generations since the
    checkpoint were never written at all.  Recovery may rely on nothing
    else."""
    cluster = run.node
    # inode -> what its last fsync covered: a file's size, a
    # directory's names.
    synced: Dict[Tuple[int, int], object] = {}
    real_fsync = os.fsync

    def recording_fsync(fd):
        real_fsync(fd)
        status = os.fstat(fd)
        synced[status.st_dev, status.st_ino] = (
            set(os.listdir(fd)) if stat.S_ISDIR(status.st_mode)
            else status.st_size)

    def cut(directory: str, named: bool) -> None:
        status = os.stat(directory)
        names = synced.get((status.st_dev, status.st_ino), ())
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            status = os.stat(path)
            if named and name not in names:
                os.remove(path)
            else:
                os.truncate(
                    path, synced.get((status.st_dev, status.st_ino), 0))

    with mock.patch.object(os, "fsync", recording_fsync):
        cluster.submit(run.schedule[0])
        manager = cluster.writer_node.manager
        manager.checkpoint(cluster.writer.server.engine,
                           manager.wal.next_seq)
        cluster.replicate()
        for batch in run.schedule[1:4]:
            cluster.submit(batch)
            cluster.replicate()
    graph = cluster.writer.server.graph
    # There is unsynced state to lose: the writer stands on a generation
    # only its memory holds.
    run.round.fired = not graph.store.segment_files(graph.snapshot_id)
    nodes = [(manager, graph.store.root)]
    nodes += [(replica.manager, replica.store_root)
              for replica in cluster.replicas.values()]
    for name in cluster.replicas:
        cluster.kill_replica(name)
    for node_manager, store_root in nodes:
        with open(os.path.join(store_root, "manifest.json"),
                  encoding="utf-8") as stream:
            snapshots = json.load(stream)["snapshots"].values()
        durable = {"manifest.json"} | {
            meta["file"] for entry in snapshots
            for meta in entry["arrays"].values()}
        for name in set(os.listdir(store_root)) - durable:
            os.truncate(os.path.join(store_root, name), 0)
        cut(node_manager.wal.directory, named=False)
        cut(os.path.join(node_manager.directory, "checkpoints"),
            named=True)
    run.round.crashes += 1
    for name in cluster.replicas:
        cluster.restart_replica(name)
    cluster.restart_writer(**run.admission)
    run.drive()


def _stores_verify(run: _ClusterRun) -> str:
    """Every snapshot the promoted writer's spool lists -- aliases
    included -- passes a full payload-CRC check, and the scrub is
    clean cluster-wide."""
    store = run.node.writer.server.graph.store
    try:
        for snapshot in store.snapshot_ids():
            store.verify(snapshot)
    except StoreError as exc:
        return f"promoted writer's store failed verify: {exc}"
    dirty = [name for name, report in run.node.scrub().items()
             if not report.ok]
    return f"scrub found damage on {dirty}" if dirty else ""


def _store_clean(run: _Run) -> str:
    """A fresh store over the writer's root -- what a restart would
    open -- verifies every generation its manifest lists, and its
    ``compact()`` sweeps whatever debris a kill inside a seal left."""
    store = MmapStore(run.store_root)
    try:
        for snapshot in store.snapshot_ids():
            store.verify(snapshot)
    except StoreError as exc:
        return f"reopened store failed verify: {exc}"
    store.compact()
    leftovers = _debris(run.store_root)
    return f"debris survived compact: {leftovers}" if leftovers else ""


def _drive_over(run: _ClusterRun,
                wrappers: Sequence[ChaosTransport]) -> None:
    """Drive the schedule over chaos-wrapped links; tally their faults
    and what the replicas did about them."""
    with scoped_registry() as metrics:
        while run.survive(run.step):
            pass
        # A reorder decision can hold the final shipment forever on a
        # quiescing link; a real network eventually delivers or re-sends.
        for wrapper in wrappers:
            wrapper.flush()
        run.survive(run.finish)
    round_ = run.round
    round_.answers = {key: metrics.counter(counter).value
                      for key, counter in _CHAOS_COUNTERS.items()}
    for wrapper in wrappers:
        for kind in FAULT_KINDS:
            round_.faults[kind] = (round_.faults.get(kind, 0)
                                   + wrapper.counts[kind])
        round_.schedule.extend(wrapper.schedule)
    round_.fired = bool(round_.schedule)
    round_.dead_letters = len(run.node.dead_letters)


def _lossy_links(run: _ClusterRun) -> None:
    """Every link drops, duplicates, corrupts, reorders and delays:
    the bounded retry budget, sequence deduplication, gap resync and
    CRC NACKs must absorb it all without the writer ever hanging."""
    config = ChaosConfig.all_faults(seed=run.round.seed, rate=CHAOS_RATE)
    _drive_over(run, wrap_cluster(run.node, config))


def _scrub_repairs(run: _ClusterRun) -> str:
    """A corrupt checkpoint blob adopted in place is invisible to the
    live engine but must not survive a scrub."""
    reports = run.node.scrub(repair=True)
    if not all(report.repaired for report in reports.values()):
        return "post-chaos scrub left damage unrepaired"
    return ""


def _black_hole(run: _ClusterRun) -> None:
    """r1's link swallows every shipment: the final sync must exhaust
    its retry budget and give up, not hang.  The operator then retires
    the unreachable replica; the survivors must still be exact."""
    cluster = run.node
    hole = ChaosTransport(cluster.replicas["r1"].inbox,
                          ChaosConfig(seed=run.round.seed, drop=1.0),
                          name="r1")
    cluster.replicas["r1"].inbox = hole
    cluster.writer_node._links["r1"].transport = hole
    _drive_over(run, [hole])
    cluster.kill_replica("r1")


def _dead_lettered(run: _ClusterRun) -> str:
    if run.converged:
        return "sync claimed convergence through a black hole"
    if not run.round.dead_letters:
        return "no dead letter recorded for the dead link"
    return ""


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _kills(topology: str, *arms: Tuple[str, int]) -> Tuple[Scenario, ...]:
    return tuple(Scenario(site, topology, (site, "crash", hit))
                 for site, hit in arms)


def _seal_kill(name: str, site: str, hit: int) -> Scenario:
    return Scenario(name, "durable", (site, "crash", hit),
                    invariant=_store_clean, store="mmap")


#: Sweep name -> rows.  A new failpoint needs a row here (see
#: ``docs/testing.md``): the acceptance test fails while a site in
#: ``KNOWN_SITES`` has neither a row nor a written reason to have none.
SWEEPS: Dict[str, Tuple[Scenario, ...]] = {
    # Per-batch sites are killed on their second pass, rare ones on
    # their first.
    "durable": _kills(
        "durable",
        ("wal.append", 2), ("wal.append.torn", 2),
        ("checkpoint.write", 1), ("checkpoint.replace", 1),
        ("engine.refine", 2), ("recover.replay", 1),
    ),
    # Submit and query sites fire once per batch; the probe fires
    # exactly once in this scenario (the breaker closes on it).
    "resilient": _kills(
        "resilient",
        ("admission.enqueue", 2), ("query.deadline", 2),
        ("breaker.probe", 1),
    ),
    "replicated": (
        Scenario("writer-kill", "cluster",
                 ("replication.ship", "crash", 3)),
        Scenario("replica-kill", "cluster",
                 ("replication.receive", "crash", 2)),
        # fault = the shipment is lost in transit.
        Scenario("segment-drop", "cluster",
                 ("replication.ship", "fault", 2),
                 invariant=_drop_healed),
        Scenario("stale-writer-fence", "cluster",
                 choreography=_stale_writer,
                 invariant=_late_shipments_fenced),
        # Replicas ahead of the writer's newest checkpoint.
        Scenario("writer-kill-past-checkpoint", "cluster",
                 choreography=_kill_past_checkpoint,
                 invariant=_no_resyncs),
        # The writer's second append (each replica's mirror passes the
        # site once per record in between): the torn record was never
        # acknowledged, so never shipped.
        Scenario("torn-append", "cluster",
                 ("wal.append.torn", "crash", 4), invariant=_no_resyncs),
        Scenario("blob-only-restart", "cluster",
                 choreography=_blob_only_restart,
                 invariant=_stores_verify, store="mmap"),
        # A cadence the four batches before the cut never reach: only
        # the checkpoint the choreography forces falls before it.
        Scenario("power-loss", "cluster", choreography=_power_loss,
                 invariant=_stores_verify, store="mmap",
                 checkpoint_every=5),
    ),
    "chaos": tuple(
        Scenario(f"lossy-links+{offset}", "cluster",
                 choreography=_lossy_links, invariant=_scrub_repairs,
                 replicas=3, seed_offset=offset)
        for offset in range(5)
    ) + (
        Scenario("black-hole", "cluster", choreography=_black_hole,
                 invariant=_dead_lettered, seed_offset=1009),
    ),
    # Inside the batch-2 checkpoint's seal of an adjusted generation,
    # past the bootstrap publish's 6 segment writes and 7 seal passes:
    # a kill per segment before its header, per segment before its
    # fsync, before the manifest replace, and after it (pin recorded)
    # before the checkpoint's own replace (hit 1: the bootstrap's).
    "storage": tuple(
        _seal_kill(f"segment-{hit}", "storage.segment_write",
                   len(ARRAY_NAMES) + hit)
        for hit in range(1, len(ARRAY_NAMES) + 1)
    ) + tuple(
        _seal_kill(f"seal-{hit}", "storage.seal", len(ARRAY_NAMES) + 1 + hit)
        for hit in range(1, len(ARRAY_NAMES) + 2)
    ) + (
        _seal_kill("seal-pinned", "checkpoint.replace", 2),
    ),
}


def _fault_kind_coverage(seed: int,
                         rounds: Sequence[CrashRound]) -> CrashRound:
    """Sweep-level invariant of ``chaos``: every fault kind fired, and
    each CRC gate NACKed, in some lossy-link row.  Its own entry, so no
    row's verdict hides it."""
    lossy = [round_ for round_ in rounds
             if round_.scenario.startswith("lossy-links")]
    coverage = {kind: sum(round_.faults.get(kind, 0) for round_ in lossy)
                for kind in FAULT_KINDS}
    nacks = {gate: sum(round_.answers.get(gate, 0) for round_ in lossy)
             for gate in NACK_GATES}
    missing = [kind for kind, count in {**coverage, **nacks}.items()
               if count == 0]
    detail = "" if not missing else (
        f"fault kind(s) or NACK gate(s) never fired across the sweep: "
        f"{', '.join(missing)} -- raise the rate or add seeds"
    )
    return CrashRound(seed=seed, scenario="fault-kind-coverage",
                      workload=f"{len(lossy)} lossy-link round(s)",
                      fired=not missing, ok=not missing,
                      detail=detail, faults=coverage, answers=nacks)


def run_row(scenario: Scenario, seed: int, state_dir: str) -> CrashRound:
    """One table row on the workload seeded by ``seed`` + its offset."""
    seed += scenario.seed_offset
    workload = _workload_with_batches(seed, minimum=4)
    return run_scenario(scenario, workload, state_dir, seed=seed,
                        checkpoint_every=scenario.checkpoint_every)


def _run_all(jobs, state_root: Optional[str], prefix: str,
             emit: Callable[[str], None]) -> List[CrashRound]:
    """Run each ``(name, replay command, run(state_dir))`` job in its
    own directory under ``state_root`` -- or under a temp root this
    call owns: removed when every round is ok, kept otherwise.  A
    failing round keeps its state directory, the replay command (which
    also replays a chaos row's fault schedule bit-for-bit) next to it."""
    root = state_root or tempfile.mkdtemp(prefix=prefix)
    os.makedirs(root, exist_ok=True)
    rounds = []
    for name, command, run in jobs:
        state_dir = os.path.join(root, name)
        rounds.append(run(state_dir))
        emit(rounds[-1].summary())
        if rounds[-1].ok:
            shutil.rmtree(state_dir, ignore_errors=True)
            continue
        with open(state_dir + ".repro.txt", "w", encoding="utf-8") as out:
            out.write(f"{rounds[-1].summary()}\n"
                      f"workload: {rounds[-1].workload}\n\nreplay with:\n"
                      f"  PYTHONPATH=src python -m {command}\n")
        emit(f"    WAL + state kept -> {state_dir} (+ .repro.txt)")
    if state_root is None and all(round_.ok for round_ in rounds):
        shutil.rmtree(root, ignore_errors=True)
    return rounds


def sweep(
    name: str,
    seed: int = 0,
    state_root: Optional[str] = None,
    emit: Callable[[str], None] = lambda _: None,
) -> List[CrashRound]:
    """Run every row of ``SWEEPS[name]`` (see :func:`_run_all` for
    where state lives) plus, for ``chaos``, the sweep-level coverage
    invariant; the acceptance gate is every returned entry ``ok``."""
    if name not in SWEEPS:
        raise ValueError(f"unknown sweep {name!r}; pick from {sorted(SWEEPS)}")
    command = f"repro fuzz --crash --sweep {name} --seed {seed}"
    results = _run_all(
        [(row.name, command, partial(run_row, row, seed))
         for row in SWEEPS[name]],
        state_root, f"crash-sweep-{name}-", emit,
    )
    if name == "chaos":
        results.append(_fault_kind_coverage(seed, results))
        emit(results[-1].summary())
    return results


def run_crash_fuzz(
    seed: int = 0,
    rounds: int = 8,
    algorithms: Optional[Sequence[str]] = None,
    max_vertices: int = 32,
    max_batches: int = 6,
    checkpoint_every: int = 2,
    artifacts_dir: Optional[str] = None,
) -> List[CrashRound]:
    """A seeded campaign: each round draws a workload from the PR-1
    fuzzer and a ``(site, hit)`` from the durable rows -- a plain
    durable server never passes the admission or shipping sites, so
    drawing those would be dead rounds; their sweeps cover them."""
    def jobs():
        for round_seed in range(seed, seed + rounds):
            workload = generate_workload(
                round_seed, algorithms=algorithms,
                max_vertices=max_vertices, max_batches=max_batches,
            )
            rng = np.random.default_rng((round_seed, 0xC4A5))
            site = str(rng.choice([row.arm[0]
                                   for row in SWEEPS["durable"]]))
            budget = (len(workload.schedule)
                      if site in _PER_BATCH_SITES else 2)
            hit = int(rng.integers(1, max(budget, 1) + 1))
            scenario = Scenario(site, "durable", (site, "crash", hit),
                                must_fire=False)
            yield (
                f"state-seed{round_seed}",
                f"repro fuzz --crash --seed {round_seed} --rounds 1 "
                f"--checkpoint-every {checkpoint_every}",
                partial(run_scenario, scenario, workload,
                        checkpoint_every=checkpoint_every),
            )

    start = time.perf_counter()
    results = _run_all(jobs(), artifacts_dir, "crash-fuzz-", print)
    print(
        f"crash fuzz: {len(results)} round(s), "
        f"{sum(r.crashes for r in results)} crash(es) injected, "
        f"{sum(1 for r in results if not r.ok)} mismatch(es), "
        f"{time.perf_counter() - start:.1f}s"
    )
    return results


def run_plant_fault(seed: int = 0) -> bool:
    """Self-test: prove the failpoint registry actually fires.

    Arms a *transient* fault at ``wal.append`` and succeeds only if
    (a) the registry reports the firing, (b) the manager's bounded
    retry absorbed it (``recovery.retries`` advanced), and (c) the
    stream still completed bit-for-bit.  A harness whose failpoints are
    dead code would fail (a); one without retry would crash at (c).
    """
    workload = _workload_with_batches(seed, minimum=2)
    scenario = Scenario("plant-fault", "durable", ("wal.append", "fault", 1))
    state_dir = tempfile.mkdtemp(prefix="plant-fault-")
    try:
        with scoped_registry() as metrics:
            round_ = run_scenario(scenario, workload, state_dir)
            retried = metrics.counter("recovery.retries").value > 0
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if round_.ok and retried:
        print("plant-a-fault: wal.append fired, retry absorbed it, "
             "stream completed -- failpoints are live")
        return True
    print(f"plant-a-fault: FAILED (fired={round_.fired}, "
         f"retried={retried}, completed={round_.ok}) -- the failpoint "
         f"registry is not wired into the serving stack")
    return False
