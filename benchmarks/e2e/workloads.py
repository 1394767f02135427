"""The four workloads: set-up, the closed measurement loop, the oracle.

Load model: closed loop, one client, one process, one thread -- every
layer of this system is synchronous and in-process, so the caller waits
for each reply.  A driver applies warm-up batches untimed, then timed
batches until the deadline (or a fixed count), then verifies the final
state.  Everything the *system* does in one loop iteration (batch,
replication round, the iteration's queries, a writer restart) happens
inside one ``bench.batch`` root span and counts toward the stream wall;
the benchmark's own work (restart samples, oracle comparisons, file-size
probes) happens outside both.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.label_propagation import LabelPropagation
from repro.algorithms.pagerank import PageRank
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.storage import MmapStore
from repro.ligra.delta import DeltaEngine
from repro.obs import trace
from repro.recovery.manager import RecoveryManager
from repro.runtime.metrics import EngineMetrics
from repro.serving.replication import ReplicationCluster, ReplicationError
from repro.serving.resilience import ResilientAnalyticsServer
from repro.serving.router import QueryRouter
from repro.serving.server import StreamingAnalyticsServer
from repro.testing.oracle import compare_snapshots
from repro.testing.workloads import FUZZ_ALGORITHMS

from inputs import Inputs
from reference import reference_s
from spans import ROOT
from vocabulary import (
    CHECKPOINT_EVERY,
    KILL_FIRST,
    KILL_PERIOD,
    Workload,
)

ALGORITHMS: Dict[str, Callable] = {
    "pagerank": PageRank,
    "label_propagation": LabelPropagation,
}

#: Theorem 4.1 is checked at the tolerance the repo's own differential
#: oracle uses for these algorithms.
ORACLE_TOLERANCE = FUZZ_ALGORITHMS["pagerank"].tolerance

#: Wall spent re-timing one restart sample before the median is taken.
RESTART_TIMING_BUDGET_S = 0.1

now = time.perf_counter


@dataclass
class Samples:
    """Everything one pass over a stream measured (timed batches only,
    except ``attempted``/``failures``, which cover the whole pass)."""

    setup: Dict[str, float] = field(default_factory=dict)
    batch_s: List[float] = field(default_factory=list)
    loop_s: List[float] = field(default_factory=list)
    # Machine speed beside each timed iteration: mean of the reference
    # kernel's wall just before and just after it.
    reference_s: List[float] = field(default_factory=list)
    mutations: int = 0
    # GB-Reset restart samples: (restart cost, full-run wall, restart
    # edge computations, incremental edge computations, latency of the
    # incremental batch the restart is paired with).
    restarts: List[Tuple[float, float, int, int, float]] = field(
        default_factory=list)
    fresh_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    query_forward_s: List[float] = field(default_factory=list)
    query_edges: List[int] = field(default_factory=list)
    query_staleness: List[int] = field(default_factory=list)
    recovery_s: List[float] = field(default_factory=list)
    lag: List[int] = field(default_factory=list)
    # Per-batch EngineMetrics deltas of the writer / bare engine.
    edges: List[int] = field(default_factory=list)
    vertices: List[int] = field(default_factory=list)
    refine_iterations: List[int] = field(default_factory=list)
    hybrid_iterations: List[int] = field(default_factory=list)
    # Byte probes (traced pass only).
    store_bytes: List[int] = field(default_factory=list)
    wal_bytes: int = 0
    shipped_bytes: int = 0
    fsyncs: int = 0
    # End-of-pass facts.
    facts: Dict[str, float] = field(default_factory=dict)
    values_crc32: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _directory_bytes(root: str) -> int:
    total = 0
    for base, _, names in os.walk(root):
        for name in names:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass   # rotated away between listing and stat
    return total


class _Driver:
    """Shared skeleton: oracle, restart sampling, the timed loop."""

    def __init__(self, spec: Workload, inputs: Inputs, session,
                 scratch: str) -> None:
        self.spec = spec
        self.inputs = inputs
        self.session = session
        self.scratch = scratch
        self.factory = ALGORITHMS[spec.algorithm]
        self.samples = Samples()

    # -- hooks ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def step(self, index: int, batch, timed: bool) -> None:
        raise NotImplementedError

    def current(self):
        """``(snapshot, values, iterations)`` the oracle compares."""
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- oracle --------------------------------------------------------
    def restart_due(self, ingested: int) -> bool:
        """Mid-cadence, so that with an even cadence a sample never
        pairs with a checkpoint batch (every 8th), whose latency is a
        different population."""
        every = self.spec.restart_every
        return ingested % every == every // 2

    def restart_sample(self, index: int, adjust_s: float,
                       incremental_edges: int, batch_s: float,
                       timed: bool) -> None:
        """GB-Reset restart: a from-scratch run on the current snapshot.
        It is both the restart side of ``speedup_vs_restart`` and the
        Theorem 4.1 oracle for the incremental result."""
        graph, values, iterations = self.current()
        walls = []
        # A short restart (tens of ms on the serving workloads) is timed
        # up to five times and the median kept; a long one is timed once.
        while not walls or (len(walls) < 5
                            and sum(walls) < RESTART_TIMING_BUDGET_S):
            metrics = EngineMetrics()
            start = now()
            expected = DeltaEngine(self.factory(), metrics).run(
                graph, num_iterations=iterations
            )
            walls.append(now() - start)
        wall = statistics.median(walls)
        if timed:
            self.samples.restarts.append(
                (adjust_s + wall, wall, metrics.edge_computations,
                 incremental_edges, batch_s)
            )
        verdict = compare_snapshots(values, expected, ORACLE_TOLERANCE)
        self.samples.check(
            verdict is None, f"oracle mismatch after batch {index}: {verdict}"
        )

    # -- the loop ------------------------------------------------------
    def run(self, warmup: int, seconds: Optional[float],
            max_timed: Optional[int]) -> None:
        """Warm up, then time batches until ``seconds`` have elapsed or
        ``max_timed`` batches are done, whichever is given."""
        batches = self.inputs.batches
        started = None
        for index, batch in enumerate(batches):
            timed = index >= warmup
            if timed:
                if started is None:
                    started = now()
                    before = reference_s()
                done = index - warmup
                if max_timed is not None and done >= max_timed:
                    break
                if seconds is not None and now() - started >= seconds:
                    break
            self.step(index, batch, timed)
            if timed:
                after = reference_s()
                self.samples.reference_s.append((before + after) / 2)
                before = after
        self.finish()


# ----------------------------------------------------------------------
# engine_small_batch / engine_refine_heavy
# ----------------------------------------------------------------------
class EngineDriver(_Driver):
    """Bare ``GraphBoltEngine`` on a heap ``StreamingGraph``."""

    def setup(self) -> None:
        data = self.inputs
        iterations = self.spec.iterations[0]
        t0 = now()
        graph = CSRGraph(data.num_vertices, data.src, data.dst, data.weight)
        t1 = now()
        self.streaming = StreamingGraph(graph)
        self.engine = GraphBoltEngine(self.factory(),
                                      num_iterations=iterations)
        self.engine.run(streaming=self.streaming)
        t2 = now()
        self.session.wrap(self.streaming, "apply_batch",
                          "graph.apply_batch")
        self.samples.setup = {
            "setup_s": t2 - t0,
            "graph.build_s": t1 - t0,
            "core.initial_run_s": t2 - t1,
        }
        self.sampled_index = -1

    def current(self):
        return (self.streaming.graph, self.engine.values,
                self.spec.iterations[0])

    def step(self, index: int, batch, timed: bool) -> None:
        samples = self.samples
        before = self.engine.metrics.snapshot()
        with trace.span(ROOT, index=index, timed=timed):
            t0 = now()
            mutation = self.streaming.apply_batch(batch)
            t1 = now()
            self.engine.apply_mutation_result(mutation)
            t2 = now()
        samples.attempted += 1
        delta = self.engine.metrics.delta_since(before)
        if timed:
            samples.batch_s.append(t2 - t0)
            samples.loop_s.append(t2 - t0)
            samples.fresh_s.append(t2 - t0)   # the engine is the only reader
            samples.mutations += len(batch)
            samples.edges.append(delta.edge_computations)
            samples.vertices.append(delta.vertex_computations)
            samples.refine_iterations.append(delta.refinement_iterations)
            samples.hybrid_iterations.append(delta.hybrid_iterations)
        self.last = (index, t1 - t0, delta.edge_computations, t2 - t0)
        if self.restart_due(index + 1):
            self.sampled_index = index
            self.restart_sample(*self.last, timed)

    def finish(self) -> None:
        if self.sampled_index != self.last[0]:
            self.restart_sample(*self.last, timed=True)
        values = self.engine.values
        self.samples.values_crc32 = zlib.crc32(
            np.ascontiguousarray(values).tobytes()
        )
        self.samples.facts["core.dependency_bytes"] = float(
            self.engine.history.nbytes
        )


# ----------------------------------------------------------------------
# serving_ingest / serving_query_mix
# ----------------------------------------------------------------------
class ServingDriver(_Driver):
    """Store -> durable server -> admission -> 2-replica cluster -> router."""

    def setup(self) -> None:
        data, spec, session = self.inputs, self.spec, self.session
        approx, exact = spec.iterations
        # A fixed name: checkpoints embed the store root and are
        # compressed, so a random directory name would make the shipped
        # byte counts differ by a few bytes from run to run.
        self.root = os.path.join(self.scratch, spec.name)
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        t0 = now()
        graph = CSRGraph(data.num_vertices, data.src, data.dst, data.weight)
        t1 = now()
        if spec.store == "mmap":
            graph = MmapStore(os.path.join(self.root, "store")).publish(
                graph)
        t2 = now()
        manager = RecoveryManager(os.path.join(self.root, "writer"),
                                  checkpoint_every=CHECKPOINT_EVERY)
        server = StreamingAnalyticsServer(
            self.factory, graph, approx_iterations=approx,
            exact_iterations=exact, recovery=manager,
        )
        resilient = ResilientAnalyticsServer(server, admission="block")
        self.cluster = ReplicationCluster(
            resilient, self.factory, os.path.join(self.root, "cluster"),
            replicas=2, transport="directory", exact_iterations=exact,
        )
        # Bounded staleness for token-less reads: a replica is at most
        # one checkpoint interval behind between ship rounds.
        self.router = QueryRouter(
            self.cluster,
            max_staleness_batches=(CHECKPOINT_EVERY
                                   if spec.queries_per_batch else None),
        )
        self.cluster.replicate()    # replicas bootstrap from checkpoint 0
        t3 = now()
        self.samples.setup = {
            "setup_s": t3 - t0,
            "graph.build_s": t1 - t0,
            "graph.store_publish_s": t2 - t1,
        }
        session.wrap(self.cluster, "submit", "serving.submit")
        session.wrap(self.cluster, "restart_writer",
                     "serving.restart_writer")
        session.wrap(self.router, "query", "serving.router_query")
        for replica in self.cluster.replicas.values():
            session.wrap(replica, "poll", "serving.poll")
            if session.traced:
                self._count_shipped_bytes(replica.inbox)
        self._wrap_writer()
        self.pending: List[Tuple[int, float, bool]] = []
        self.sampled_index = -1
        # Counters of writers that died (objects are replaced on restart).
        self.carried = {"queries_degraded": 0, "shed": 0, "deferred": 0,
                        "quarantined": 0}

    def _wrap_writer(self) -> None:
        node = self.cluster.writer_node
        self.session.wrap(node.manager, "log_batch", "recovery.log_batch")
        self.session.wrap(node.manager, "checkpoint", "runtime.checkpoint")
        self.session.wrap(node, "ship", "serving.ship")

    def _count_shipped_bytes(self, inbox) -> None:
        send = inbox.send
        samples = self.samples

        def counting_send(shipment):
            samples.shipped_bytes += (
                len(shipment.blob) + sum(map(len, shipment.lines))
            )
            return send(shipment)

        inbox.send = counting_send

    def _store(self):
        """The mmap store behind the writer's current snapshot (a
        restarted writer opens its own store object on the same root,
        so the one set-up created goes stale after a kill)."""
        store = self.cluster.writer.server.graph.store
        return store if store is not None and store.kind == "mmap" else None

    def current(self):
        server = self.cluster.writer.server
        return (server.graph, server.approximate_values,
                self.spec.iterations[0])

    # -- one loop iteration -------------------------------------------
    def step(self, index: int, batch, timed: bool) -> None:
        samples, spec, cluster = self.samples, self.spec, self.cluster
        engine = cluster.writer.server.engine
        before = engine.metrics.snapshot()
        probing = self.session.traced and timed
        if probing:
            wal_dir = os.path.join(cluster.writer_node.manager.directory,
                                   "wal")
            wal_before = _directory_bytes(wal_dir)
            fsyncs_before = self.session.fsyncs
        ingested = index + 1
        with trace.span(ROOT, index=index, timed=timed):
            t0 = now()
            token = cluster.submit(batch)
            t1 = now()
            cluster.replicate()
            t2 = now()
            covered = min(replica.next_seq
                          for replica in cluster.replicas.values()
                          if replica.alive)
            self.pending.append((token, t0, timed))
            while self.pending and self.pending[0][0] <= covered:
                _, submitted, was_timed = self.pending.pop(0)
                if was_timed:
                    samples.fresh_s.append(t2 - submitted)
            lag = token - covered    # the writer's position is the token
            if spec.ryw_query_every and ingested % spec.ryw_query_every == 0:
                self._query(timed, min_applied_batch=token)
            for _ in range(spec.queries_per_batch):
                self._query(timed)
            killed = (spec.kills and ingested >= KILL_FIRST
                      and (ingested - KILL_FIRST) % KILL_PERIOD == 0)
            if killed:
                self._kill(timed)
            t3 = now()
        samples.attempted += 1
        delta = engine.metrics.delta_since(before)
        if timed:
            samples.batch_s.append(t1 - t0)
            samples.loop_s.append(t3 - t0)
            samples.mutations += len(batch)
            samples.lag.append(lag)
            samples.edges.append(delta.edge_computations)
            samples.vertices.append(delta.vertex_computations)
            samples.refine_iterations.append(delta.refinement_iterations)
            samples.hybrid_iterations.append(delta.hybrid_iterations)
        if probing:
            samples.fsyncs += self.session.fsyncs - fsyncs_before
            # A checkpoint in this batch may have garbage-collected WAL
            # segments; count only growth.
            samples.wal_bytes += max(
                0, _directory_bytes(wal_dir) - wal_before)
            store = self._store()
            if store is not None:
                graph = cluster.writer.server.graph
                samples.store_bytes.append(sum(
                    os.path.getsize(os.path.join(store.root, name))
                    for name in store.segment_files(graph.snapshot_id)
                ))
        # The restart side is not charged for structure adjustment here:
        # an untraced run cannot see it inside submit().
        self.last = (index, 0.0, delta.edge_computations, t1 - t0)
        if self.restart_due(ingested) and not killed:
            self.sampled_index = index
            self.restart_sample(*self.last, timed)

    def _query(self, timed: bool, **kwargs) -> None:
        samples = self.samples
        t0 = now()
        try:
            routed = self.router.query(**kwargs)
        except ReplicationError as exc:   # StalenessError, no replica
            samples.check(False, f"query failed: {exc}")
            return
        wall = now() - t0
        samples.check(not routed.degraded, "degraded query")
        if timed:
            samples.query_s.append(wall)
            samples.query_forward_s.append(routed.result.seconds)
            samples.query_edges.append(routed.result.edge_computations)
            samples.query_staleness.append(routed.staleness_batches)

    def _carry_counters(self) -> None:
        writer = self.cluster.writer
        self.carried["queries_degraded"] += writer.server.queries_degraded
        self.carried["shed"] += writer.shed
        self.carried["deferred"] += writer.deferred
        self.carried["quarantined"] += writer.server.batches_quarantined

    def _kill(self, timed: bool) -> None:
        """Writer crash: the process state is dropped without an orderly
        close, then rebuilt from checkpoint + WAL tail."""
        cluster = self.cluster
        expected = cluster.writer.approximate_values.copy()
        self._carry_counters()
        t0 = now()
        cluster.restart_writer()
        wall = now() - t0
        self._wrap_writer()
        recovered = cluster.writer.approximate_values
        self.samples.check(
            np.array_equal(recovered, expected),
            "recovered writer differs from its pre-kill values",
        )
        if timed:
            self.samples.recovery_s.append(wall)

    # -- end of stream -------------------------------------------------
    def finish(self) -> None:
        samples, cluster = self.samples, self.cluster
        samples.check(cluster.sync(), "final sync() did not converge")
        writer_values = cluster.writer.approximate_values
        for name, replica in sorted(cluster.replicas.items()):
            samples.check(
                np.array_equal(replica.approximate_values, writer_values),
                f"replica {name} differs from the writer after sync()",
            )
        if self.sampled_index != self.last[0]:
            # The oracle always; a timing pair only off a checkpoint
            # batch (see ``restart_due``).
            ingested = self.last[0] + 1
            self.restart_sample(
                *self.last, timed=ingested % CHECKPOINT_EVERY != 0)
        # One routed query against a from-scratch run of the exact window.
        graph = cluster.writer.server.graph
        try:
            routed = self.router.query()
            exact = DeltaEngine(self.factory()).run(
                graph, num_iterations=self.spec.iterations[1])
            verdict = compare_snapshots(routed.values, exact,
                                        ORACLE_TOLERANCE)
            samples.check(verdict is None and not routed.degraded,
                          f"final query mismatch: {verdict}")
        except ReplicationError as exc:
            samples.check(False, f"final query failed: {exc}")
        samples.values_crc32 = zlib.crc32(
            np.ascontiguousarray(writer_values).tobytes()
        )

        self._carry_counters()
        facts = samples.facts
        for key, value in self.carried.items():
            facts[f"serving.{key}"] = float(value)
        routed_total = self.router.queries_routed
        facts["serving.writer_fallback_ratio"] = (
            self.router.writer_fallbacks / routed_total
            if routed_total else 0.0
        )
        engine = cluster.writer.server.engine
        facts["core.dependency_bytes"] = float(engine.history.nbytes)
        manager = cluster.writer_node.manager
        generations = manager.checkpoints()
        facts["runtime.checkpoint_bytes"] = float(
            os.path.getsize(generations[-1][1]) if generations else 0
        )
        facts["recovery.state_disk_bytes"] = float(
            _directory_bytes(manager.directory)
        )
        store = self._store()
        if store is not None:
            store.compact()
            facts["graph.store_disk_bytes"] = float(
                _directory_bytes(store.root)
            )

    def close(self) -> None:
        try:
            self.cluster.close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
            del self.cluster, self.router   # memmaps, inboxes


DRIVERS = {"engine": EngineDriver, "serving": ServingDriver}
