"""Metric derivation: samples -> end-to-end, samples + spans -> per-layer.

Conventions.  A ``*_s`` per-layer metric is the median duration of one
occurrence (one batch's refinement, one checkpoint, one ship round).  A
``*_share`` is that layer's total *self* time over all timed loop
iterations divided by the stream wall, so periodic stalls (checkpoints,
ship rounds) weigh what they cost; the shares plus
``obs.unattributed_share`` sum to one.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

from spans import ROOT, SpanTree, attribute
from vocabulary import PER_LAYER, Workload, defined_on
from workloads import Samples


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported latency is
    one that was measured)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def end_to_end(samples: Samples, setup_s: float,
               peak_rss_bytes: int) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass (every name; the
    caller keeps the ones defined on this workload).

    A ``*_ref`` metric is its ``*_s`` twin in units of the reference
    kernel (``reference.py``) timed beside the same iterations: a batch
    against the mean of the timings around it, the stream wall iteration
    by iteration, freshness (which spans iterations) against the run's
    median.  A slow spell of the machine scales both sides alike."""
    wall = sum(samples.loop_s)
    reference = samples.reference_s
    wall_ref = sum(s / r for s, r in zip(samples.loop_s, reference))
    return {
        "setup_s": setup_s,
        "batch_latency_p50_ref": median(
            [s / r for s, r in zip(samples.batch_s, reference)]),
        "mutations_per_ref": (samples.mutations / wall_ref
                              if wall_ref else 0.0),
        "freshness_p50_ref": (median(samples.fresh_s) / median(reference)
                              if reference else 0.0),
        "reference_s": median(reference),
        "batch_latency_p50_s": median(samples.batch_s),
        "batch_latency_p90_s": percentile(samples.batch_s, 0.90),
        "mutations_per_s": samples.mutations / wall if wall else 0.0,
        # Paired: each restart against the incremental batch it
        # follows, so a slow spell of the machine scales both sides.
        "speedup_vs_restart": median(
            [r[0] / r[4] for r in samples.restarts]),
        "freshness_p50_s": median(samples.fresh_s),
        "query_latency_p50_s": median(samples.query_s),
        "query_latency_p95_s": percentile(samples.query_s, 0.95),
        "queries_per_s": len(samples.query_s) / wall if wall else 0.0,
        "recovery_s": median(samples.recovery_s),
        "peak_rss_bytes": float(peak_rss_bytes),
    }


def per_layer(spec: Workload, untraced: Samples, traced: Samples,
              tree: SpanTree,
              probe: Optional[Dict[str, float]]) -> Dict[str, float]:
    """Every per-layer metric defined on ``spec``'s workload.

    ``untraced`` and ``traced`` are two passes over the same batches
    (same seed, same count); ``tree`` holds the traced pass's spans,
    its set-up included.
    """
    timed_roots = [e["id"] for e in tree.spans(ROOT) if e["tags"]["timed"]]
    batches = len(timed_roots)
    wall = sum(tree.by_id[i]["duration"] for i in timed_roots)
    totals = attribute(tree, timed_roots)
    in_window = set(timed_roots)

    def timed(events: List[dict]) -> List[dict]:
        return [e for e in events if tree.root(e["id"]) in in_window]

    def occurrence(name: str, layer: str) -> float:
        return median([e["duration"]
                       for e in timed(tree.spans(name, layer))])

    def share(layer: str) -> float:
        return totals.get(layer, 0.0) / wall if wall else 0.0

    out: Dict[str, float] = dict(traced.facts)
    out.update(traced.setup)

    # graph / core: one occurrence per batch on the writer's own path.
    adjust_name = ("graph.apply_batch" if spec.family == "engine"
                   else "adjust_structure")
    out["graph.adjust_s"] = occurrence(adjust_name, "graph.adjust")
    out["graph.adjust_share"] = share("graph.adjust")
    out["core.refine_s"] = occurrence("refine", "core.refine")
    out["core.refine_share"] = share("core.refine")
    out["core.forward_s"] = occurrence("forward", "core.forward")
    out["core.forward_share"] = share("core.forward")
    out["core.edge_computations_per_batch"] = median(traced.edges)
    out["core.vertex_computations_per_batch"] = median(traced.vertices)
    out["core.refinement_iterations_per_batch"] = median(
        traced.refine_iterations)
    out["core.hybrid_iterations_per_batch"] = median(
        traced.hybrid_iterations)
    restart_edges = sum(r[2] for r in traced.restarts)
    incremental_edges = sum(r[3] for r in traced.restarts)
    out["core.edge_work_vs_restart"] = (
        incremental_edges / restart_edges if restart_edges else 0.0
    )
    out["ligra.restart_run_s"] = median([r[1] for r in traced.restarts])
    initial = tree.spans("initial_run")
    if initial:
        out["core.initial_run_s"] = initial[0]["duration"]
    if probe is not None:
        out["graph.adjust_scale_exponent"] = math.log2(
            out["graph.adjust_s"] / probe["graph.adjust_s"])
        out["core.refine_scale_exponent"] = math.log2(
            out["core.refine_s"] / probe["core.refine_s"])

    if spec.family == "serving":
        _serving_layers(out, traced, tree, timed, occurrence, share,
                        batches)

    # obs
    # Both walls in units of the reference kernel: the two passes run
    # minutes apart, and the machine drifts by more than tracing costs.
    untraced_wall, traced_wall = (
        sum(s / r for s, r in zip(p.loop_s, p.reference_s))
        for p in (untraced, traced))
    out["obs.tracing_overhead_ratio"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    spans_in_window = sum(
        1 for i in tree.by_id if tree.root(i) in in_window
    )
    out["obs.spans_per_batch"] = (spans_in_window / batches
                                  if batches else 0.0)
    out["obs.unattributed_share"] = share(None)
    return {m.name: float(out.get(m.name, 0.0))
            for m in defined_on(PER_LAYER, spec.name)}


def _serving_layers(out, traced, tree, timed, occurrence, share,
                    batches) -> None:
    mutations = traced.mutations
    out["ligra.query_forward_s"] = median(traced.query_forward_s)
    out["ligra.query_forward_share"] = share("ligra.query_forward")
    out["ligra.query_edge_computations"] = median(traced.query_edges)

    out["runtime.checkpoint_s"] = occurrence("runtime.checkpoint",
                                             "runtime.checkpoint")
    out["runtime.checkpoint_share"] = share("runtime.checkpoint")
    out["recovery.wal_append_s"] = occurrence("recovery.log_batch",
                                              "recovery.wal_append")
    out["recovery.wal_append_share"] = share("recovery.wal_append")
    out["recovery.wal_bytes_per_mutation"] = (
        traced.wal_bytes / mutations if mutations else 0.0)
    out["recovery.fsyncs_per_batch"] = (traced.fsyncs / batches
                                        if batches else 0.0)

    # A writer restart: checkpoint load, then WAL-tail replay.
    loads, replays, replayed = [], [], []
    for restart in timed(tree.spans("serving.restart_writer")):
        recover = tree.descendants(restart["id"], "recovery.recover")
        replay = tree.descendants(restart["id"], "recovery.replay")
        if recover and replay:
            loads.append(recover[0]["duration"] - replay[0]["duration"])
            replays.append(replay[0]["duration"])
            replayed.append(len(tree.children(replay[0]["id"], "batch")))
    out["runtime.checkpoint_load_s"] = median(loads)
    out["recovery.replay_s"] = median(replays)
    out["recovery.replayed_batches"] = median(replayed)
    out["recovery.restart_share"] = share("recovery.restart")

    out["serving.admission_s"] = median([
        tree.self_s[e["id"]] for e in timed(tree.spans("serving.submit"))
    ])
    out["serving.admission_share"] = share("serving.admission")
    out["serving.ingest_s"] = median([
        tree.self_s[e["id"]]
        for e in timed(tree.spans("ingest", "serving.ingest"))
    ])
    out["serving.ingest_share"] = share("serving.ingest")
    # Ship / apply happen in rounds (one per checkpoint interval): the
    # median is over rounds that moved something.
    ship_rounds = [
        e["duration"] for e in timed(tree.spans("serving.ship"))
        if tree.children(e["id"], "replication.ship")
    ]
    out["serving.ship_s"] = median(ship_rounds)
    out["serving.ship_share"] = share("serving.ship")
    apply_rounds: Dict[int, float] = {}
    for event in timed(tree.spans("replication.apply")):
        root = tree.root(event["id"])
        apply_rounds[root] = apply_rounds.get(root, 0.0) + event["duration"]
    out["serving.replica_apply_s"] = median(list(apply_rounds.values()))
    out["serving.replica_apply_share"] = share("serving.replica_apply")
    out["serving.shipped_bytes_per_batch"] = (
        traced.shipped_bytes / batches if batches else 0.0)
    out["serving.replica_lag_batches_p50"] = median(traced.lag)
    out["serving.staleness_batches_max"] = float(
        max(traced.query_staleness, default=0))
    out["serving.router_s"] = median([
        e["duration"] - sum(
            q["duration"] for q in tree.descendants(e["id"], "query"))
        for e in timed(tree.spans("serving.router_query"))
    ])
    out["serving.router_share"] = share("serving.router")
    if traced.store_bytes:
        out["graph.store_bytes_per_batch"] = median(traced.store_bytes)
