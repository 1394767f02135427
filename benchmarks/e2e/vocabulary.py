"""The benchmark's vocabulary: workloads and metric names.

Later issues quote these names in before/after pairs, so a name here is
an interface: rename nothing, add at the end.  ``BENCHMARK.json`` at the
repo root lists the subset the external driver records (see README,
"What the driver gates"); ``test_smoke.py`` pins that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

ENGINE = ("engine_small_batch", "engine_refine_heavy")
SERVING = ("serving_ingest", "serving_query_mix")
ALL = ENGINE + SERVING


@dataclass(frozen=True)
class Workload:
    """One named input set; ``why`` is the reason it exists."""

    name: str
    family: str            # "engine" | "serving"
    algorithm: str         # "pagerank" | "label_propagation"
    scale: int
    batch_size: int
    #: engine: total iterations; serving: (approx, exact) windows.
    iterations: Tuple[int, ...]
    restart_every: int     # GB-Reset restart + oracle sample cadence
    #: Timed batches generated per requested second, about 80% of the
    #: rate measured on the reference box: a run normally ends with its
    #: stream (same batches every time, so statistics cover the same
    #: window and exact counts repeat) and the ``--seconds`` deadline
    #: only cuts it short on a slower machine.
    batches_per_second: float
    store: str = "heap"    # serving only: "heap" | "mmap"
    queries_per_batch: int = 0   # bounded-staleness reads per batch
    ryw_query_every: int = 0     # read-your-writes query cadence
    kills: bool = False          # writer kills 5 batches after a checkpoint
    why: str = ""


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "engine_small_batch", "engine", "pagerank", scale=16,
        batch_size=10, iterations=(10,), restart_every=10,
        batches_per_second=3.4,
        why="10-mutation batches on 2^16 vertices: structure adjustment "
            "and fixed per-batch cost dominate, so impact-proportional "
            "ingest shows here and nowhere else",
    ),
    Workload(
        "engine_refine_heavy", "engine", "label_propagation", scale=15,
        batch_size=1000, iterations=(10,), restart_every=10,
        batches_per_second=1.8,
        why="1000-mutation vector-valued batches: refinement dominates, "
            "so a kernel or backend change shows here and an ingest "
            "change must not",
    ),
    Workload(
        "serving_ingest", "serving", "pagerank", scale=15,
        batch_size=100, iterations=(5, 10), restart_every=4,
        batches_per_second=2.6, store="mmap", ryw_query_every=10,
        kills=True,
        why="write-heavy full stack (mmap store, WAL, checkpoints, 2 "
            "replicas, writer kills): durability and replication layers "
            "dominate, engine compute is the minority",
    ),
    Workload(
        "serving_query_mix", "serving", "pagerank", scale=15,
        batch_size=100, iterations=(3, 20), restart_every=4,
        batches_per_second=1.0, queries_per_batch=10,
        why="read-heavy on the same stack (10 routed queries per batch): "
            "branch loop, state copy, router and graph traversal "
            "dominate, so cheap-ingest/slow-traversal structures lose",
    ),
)}

#: Checkpoint cadence of the serving workloads (batches).
CHECKPOINT_EVERY = 8
#: A writer kill lands this many batches after a checkpoint ...
KILL_OFFSET = 5
#: ... first at this ingested count, then every ``KILL_PERIOD`` batches.
KILL_FIRST = CHECKPOINT_EVERY + KILL_OFFSET
KILL_PERIOD = 2 * CHECKPOINT_EVERY
#: Batches of every stream that are applied but not timed.
WARMUP_BATCHES = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                       # "lower" | "higher"
    workloads: Tuple[str, ...] = ALL  # where it is defined
    bound: Optional[float] = None     # end-to-end only: regression bound
    exact: bool = False               # repeats bit-for-bit under one seed
    moves: str = ""                   # per-layer: the end-to-end it moves


def _e(name, unit, better, bound, workloads=ALL) -> Metric:
    return Metric(name, unit, better, workloads, bound)


#: The end-to-end metrics (untraced runs only).  A raw wall-clock time
#: does not repeat on the reference box: its speed drifts with the other
#: tenants of the host, and ten-seed studies put the spread
#: (interquartile range over median) of every ``*_s`` and ``*_per_s``
#: metric between 8% and 30%.  So the bounded timings are the ``*_ref``
#: ones -- the same quantity in units of the reference kernel timed
#: beside it (``reference.py``), spread 4-12% -- and their raw twins are
#: diagnostics without a bound, as are the metrics demoted for too few
#: samples; README, "Repeatability", has the evidence.
END_TO_END: Tuple[Metric, ...] = (
    _e("setup_s", "s", "lower", 0.25),
    _e("batch_latency_p50_s", "s", "lower", None),
    _e("batch_latency_p90_s", "s", "lower", None),
    _e("mutations_per_s", "1/s", "higher", None),
    _e("speedup_vs_restart", "ratio", "higher", 0.25),
    _e("freshness_p50_s", "s", "lower", None),
    _e("query_latency_p50_s", "s", "lower", None, workloads=SERVING),
    _e("query_latency_p95_s", "s", "lower", None,
       workloads=("serving_query_mix",)),
    _e("queries_per_s", "1/s", "higher", None,
       workloads=("serving_query_mix",)),
    _e("recovery_s", "s", "lower", None, workloads=("serving_ingest",)),
    _e("peak_rss_bytes", "bytes", "lower", 0.15),
    _e("batch_latency_p50_ref", "ref", "lower", 0.25),
    _e("mutations_per_ref", "1/ref", "higher", 0.25),
    _e("freshness_p50_ref", "ref", "lower", 0.25),
    _e("reference_s", "s", "lower", None),
)


def _l(name, unit, better="lower", workloads=ALL, exact=False,
       moves="") -> Metric:
    return Metric(name, unit, better, workloads, None, exact, moves)


_INGEST = ("serving_ingest",)

#: Per-layer metrics (traced run only), named after src/repro modules.
PER_LAYER: Tuple[Metric, ...] = (
    # graph
    _l("graph.build_s", "s", moves="setup_s"),
    _l("graph.adjust_s", "s",
       moves="batch_latency_p50_s, mutations_per_s, speedup_vs_restart "
             "@ engine_small_batch"),
    _l("graph.adjust_share", "ratio", moves="same as graph.adjust_s"),
    _l("graph.adjust_scale_exponent", "ratio", workloads=ENGINE,
       moves="batch_latency_p50_s @ engine_small_batch"),
    _l("graph.store_publish_s", "s", workloads=_INGEST, moves="setup_s"),
    _l("graph.store_bytes_per_batch", "bytes", workloads=_INGEST,
       exact=True, moves="batch_latency_p50_s @ serving_ingest"),
    _l("graph.store_disk_bytes", "bytes", workloads=_INGEST,
       moves="batch_latency_p50_s @ serving_ingest"),
    # core
    _l("core.initial_run_s", "s", moves="setup_s"),
    _l("core.refine_s", "s",
       moves="batch_latency_p50_s @ engine_refine_heavy"),
    _l("core.refine_share", "ratio", moves="same as core.refine_s"),
    _l("core.forward_s", "s",
       moves="batch_latency_p50_s @ engine_refine_heavy"),
    _l("core.forward_share", "ratio", moves="same as core.forward_s"),
    _l("core.refine_scale_exponent", "ratio", workloads=ENGINE,
       moves="batch_latency_p50_s @ engine_refine_heavy"),
    _l("core.edge_computations_per_batch", "count", exact=True,
       moves="core.refine_s"),
    _l("core.vertex_computations_per_batch", "count", exact=True,
       moves="core.refine_s"),
    _l("core.refinement_iterations_per_batch", "count", exact=True,
       moves="core.refine_s"),
    _l("core.hybrid_iterations_per_batch", "count", exact=True,
       moves="core.forward_s"),
    _l("core.edge_work_vs_restart", "ratio", exact=True,
       moves="speedup_vs_restart"),
    _l("core.dependency_bytes", "bytes", moves="peak_rss_bytes"),
    # ligra
    _l("ligra.restart_run_s", "s",
       moves="speedup_vs_restart (denominator check)"),
    _l("ligra.query_forward_s", "s", workloads=SERVING,
       moves="query_latency_p50_s, queries_per_s @ serving_query_mix"),
    _l("ligra.query_forward_share", "ratio", workloads=SERVING,
       moves="same as ligra.query_forward_s"),
    _l("ligra.query_edge_computations", "count", workloads=SERVING,
       exact=True, moves="ligra.query_forward_s"),
    # runtime
    _l("runtime.checkpoint_s", "s", workloads=SERVING,
       moves="batch_latency_p90_s, mutations_per_s @ serving_ingest"),
    _l("runtime.checkpoint_share", "ratio", workloads=SERVING,
       moves="same as runtime.checkpoint_s"),
    _l("runtime.checkpoint_bytes", "bytes", workloads=SERVING,
       moves="runtime.checkpoint_s"),
    _l("runtime.checkpoint_load_s", "s", workloads=_INGEST,
       moves="recovery_s"),
    # recovery
    _l("recovery.wal_append_s", "s", workloads=SERVING,
       moves="batch_latency_p50_s @ serving_ingest"),
    _l("recovery.wal_append_share", "ratio", workloads=SERVING,
       moves="same as recovery.wal_append_s"),
    _l("recovery.wal_bytes_per_mutation", "bytes", workloads=SERVING,
       exact=True, moves="recovery.wal_append_s"),
    _l("recovery.fsyncs_per_batch", "count", workloads=SERVING,
       exact=True, moves="batch_latency_p50_s @ serving_ingest"),
    _l("recovery.replay_s", "s", workloads=_INGEST, moves="recovery_s"),
    _l("recovery.replayed_batches", "count", workloads=_INGEST,
       exact=True, moves="recovery_s"),
    _l("recovery.restart_share", "ratio", workloads=_INGEST,
       moves="mutations_per_s @ serving_ingest"),
    _l("recovery.state_disk_bytes", "bytes", workloads=SERVING,
       moves="runtime.checkpoint_s"),
    # serving
    _l("serving.admission_s", "s", workloads=SERVING,
       moves="batch_latency_p50_s @ serving_*"),
    _l("serving.admission_share", "ratio", workloads=SERVING,
       moves="same as serving.admission_s"),
    _l("serving.ingest_s", "s", workloads=SERVING,
       moves="batch_latency_p50_s @ serving_*"),
    _l("serving.ingest_share", "ratio", workloads=SERVING,
       moves="same as serving.ingest_s"),
    _l("serving.ship_s", "s", workloads=SERVING,
       moves="freshness_p50_s, mutations_per_s @ serving_ingest"),
    _l("serving.ship_share", "ratio", workloads=SERVING,
       moves="same as serving.ship_s"),
    _l("serving.shipped_bytes_per_batch", "bytes", workloads=SERVING,
       exact=True, moves="serving.ship_s"),
    _l("serving.replica_apply_s", "s", workloads=SERVING,
       moves="freshness_p50_s, mutations_per_s @ serving_ingest"),
    _l("serving.replica_apply_share", "ratio", workloads=SERVING,
       moves="same as serving.replica_apply_s"),
    _l("serving.replica_lag_batches_p50", "count", workloads=SERVING,
       moves="freshness_p50_s"),
    _l("serving.staleness_batches_max", "count", workloads=SERVING,
       exact=True, moves="freshness_p50_s"),
    _l("serving.router_s", "s", workloads=SERVING,
       moves="query_latency_p50_s @ serving_query_mix"),
    _l("serving.router_share", "ratio", workloads=SERVING,
       moves="same as serving.router_s"),
    _l("serving.writer_fallback_ratio", "ratio", workloads=SERVING,
       moves="query_latency_p50_s, freshness_p50_s @ serving_ingest"),
    _l("serving.queries_degraded", "count", workloads=SERVING, exact=True),
    _l("serving.shed", "count", workloads=SERVING, exact=True),
    _l("serving.deferred", "count", workloads=SERVING, exact=True),
    _l("serving.quarantined", "count", workloads=SERVING, exact=True),
    # obs
    _l("obs.tracing_overhead_ratio", "ratio",
       moves="every timing, when tracing is on"),
    _l("obs.spans_per_batch", "count",
       moves="obs.tracing_overhead_ratio"),
    _l("obs.unattributed_share", "ratio",
       moves="the ceiling of every per-layer claim"),
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def defined_on(metrics, workload: str):
    return [m for m in metrics if workload in m.workloads]
