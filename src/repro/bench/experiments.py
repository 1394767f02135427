"""Paper tables and figures: matrix reducers and bespoke drivers.

The engine x algorithm x graph x batch grids -- Table 5 + Figure 6,
Tables 6, 7 and 8, Figure 7 -- are YAML run tables under
``benchmarks/matrices/`` executed by :mod:`repro.bench.matrix`; each
has a pure ``reduce_*`` function here (looked up by payload ``area`` in
:data:`REDUCERS`) that turns the ``BENCH_<area>.json`` payload into the
paper's rows.  The measurements that are not engine grids (error counts,
memory, other systems, TC) keep an
``experiment_*`` driver that runs a scaled version of the paper's
measurement (scaling documented in DESIGN.md section 1).  Both return a
JSON-serialisable payload that renders as a paper-style text table; the
pytest-benchmark entry points in ``benchmarks/`` call them, assert the
paper's qualitative claims, and persist payloads to
``benchmarks/results/`` for EXPERIMENTS.md.

Algorithms are built by their paper abbreviation from
:data:`repro.algorithms.registry.REGISTRY`, which also records why each
tolerance was chosen.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import (
    IncrementalTriangleCounting,
    LabelPropagation,
    SSSP,
    triangle_counts,
)
from repro.algorithms.registry import PAPER_ALGORITHMS, REGISTRY
from repro.bench.harness import (
    ENGINES,
    TABLE5_ENGINES,
    GraphBoltRunner,
    LigraRunner,
    run_stream,
)
from repro.bench.reporting import format_table
from repro.bench.workloads import uniform_batch
from repro.core.engine import GraphBoltEngine
from repro.dataflow.graph_programs import DifferentialPageRank, DifferentialSSSP
from repro.graph.csr import CSRGraph
from repro.graph.generators import paper_graph, rmat
from repro.kickstarter.engine import KickStarterEngine
from repro.ligra.delta import ITERATION_CAP, DeltaEngine
from repro.ligra.engine import LigraEngine
from repro.runtime.exec import load_imbalance
from repro.runtime.metrics import EngineMetrics
from repro.runtime.parallel import project
from repro.runtime.validation import count_exceeding

__all__ = [
    "BENCH_GRAPHS",
    "REDUCERS",
    "reduce_table5",
    "reduce_table6",
    "reduce_table7",
    "reduce_table8",
    "reduce_figure7",
    "reduce_tolerance",
    "triangle_cell",
    "experiment_table1",
    "experiment_figure4",
    "experiment_figure8",
    "experiment_figure9",
    "experiment_table9",
    "experiment_motivation_tagging",
    "experiment_ablation_pruning",
    "experiment_ablation_tagreset",
    "render_table",
]

#: Graphs of Table 2, scaled (DESIGN.md section 1).
BENCH_GRAPHS: Tuple[str, ...] = ("WK", "UK", "TW", "TT", "FT")

#: Iteration count (the paper's default; 5 on YH, handled per driver).
BENCH_ITERATIONS = 10


def render_table(payload: Dict) -> str:
    """Render any experiment payload's ``table`` section as text."""
    return format_table(payload["headers"], payload["rows"],
                        title=payload.get("title"))


# ----------------------------------------------------------------------
# Table 1 -- incorrect results from naive reuse
# ----------------------------------------------------------------------
def experiment_table1(num_batches: int = 10,
                      batch_size: int = 100) -> Dict:
    """Count vertices with relative error >= 10% / >= 1% when converged
    values are naively reused across mutations (paper Table 1).

    Uses the weakly-anchored LP configuration: the paper's point is that
    a 10-iteration BSP window does *not* erase the starting point, so
    ``S^10(G_T, R_G) != S^10(G_T, I)`` and the error compounds across
    batches.  (A heavily-seeded LP that contracts to a unique fixpoint
    within the window would mask the effect.)
    """
    graph_name, seed = "WK", 11
    graph = paper_graph(graph_name)
    algorithm_factory = lambda: LabelPropagation(num_labels=5,
                                                 seed_every=10)
    naive = ENGINES["naive"](algorithm_factory, BENCH_ITERATIONS)
    naive.setup(graph)
    truth_runner = LigraRunner(algorithm_factory, BENCH_ITERATIONS)
    truth_runner.setup(graph)

    over_10, over_1 = [], []
    for index in range(num_batches):
        batch = uniform_batch(naive.graph, batch_size, seed=seed + index)
        values = naive.apply(batch)
        truth = truth_runner.apply(batch)
        over_10.append(count_exceeding(values, truth, 0.10))
        over_1.append(count_exceeding(values, truth, 0.01))

    headers = ["Error"] + [f"B{i + 1}" for i in range(num_batches)]
    return {
        "experiment": "table1",
        "title": (
            f"Table 1: vertices with incorrect results, naive reuse of "
            f"LP values on {graph_name} ({graph.num_vertices} vertices, "
            f"{batch_size} mutations/batch)"
        ),
        "headers": headers,
        "rows": [[">10%"] + over_10, [">1%"] + over_1],
        "graph": graph_name,
        "num_vertices": graph.num_vertices,
        "over_10_percent": over_10,
        "over_1_percent": over_1,
    }


# ----------------------------------------------------------------------
# Figure 4 -- change in vertex values across iterations
# ----------------------------------------------------------------------
def experiment_figure4(num_iterations: int = 10) -> Dict:
    """Per-iteration changed-vertex counts for LP on WK (paper
    Figure 4)."""
    graph = paper_graph("WK")
    engine = DeltaEngine(REGISTRY["LP"].factory())
    state = engine.initial_state(graph)
    changed = []
    for _ in range(num_iterations):
        engine.step(graph, state)
        changed.append(int(state.frontier.size))
    density = [count / graph.num_vertices for count in changed]
    bars = [_density_bar(value) for value in density]
    return {
        "experiment": "figure4",
        "title": (
            f"Figure 4: changed vertices per iteration, LP on WK "
            f"({graph.num_vertices} vertices)"
        ),
        "headers": ["Iteration"] + [str(i + 1) for i in range(num_iterations)],
        "rows": [
            ["changed"] + changed,
            ["density"] + [round(d, 3) for d in density],
            ["plot"] + bars,
        ],
        "changed_per_iteration": changed,
        "density_per_iteration": density,
    }


def _density_bar(value: float) -> str:
    """A five-cell bar rendering of a [0, 1] density (the ASCII
    counterpart of Figure 4's pixel columns)."""
    filled = round(value * 5)
    return "#" * filled + "." * (5 - filled)


# ----------------------------------------------------------------------
# Table 5 -- the TC column (not an engine run, so not a matrix cell)
# ----------------------------------------------------------------------
def triangle_cell(graph: CSRGraph, batches) -> Dict[str, Dict]:
    """One Table 5 cell for TC: recompute baseline (Ligra == GB-Reset,
    single iteration) versus incremental maintenance."""
    cell = {}
    restart_metrics = EngineMetrics()
    restart_seconds = 0.0
    streaming_edges = [graph]
    current = graph
    for batch in batches:
        from repro.graph.mutable import StreamingGraph

        stream = StreamingGraph(current)
        stream.apply_batch(batch)
        current = stream.graph
        start = time.perf_counter()
        triangle_counts(current, restart_metrics)
        restart_seconds += time.perf_counter() - start
        streaming_edges.append(current)
    restart = {
        "seconds": restart_seconds,
        "edges": restart_metrics.edge_computations,
    }
    cell["Ligra"] = dict(restart)
    cell["GB-Reset"] = dict(restart)

    counter = IncrementalTriangleCounting(graph)
    baseline = counter.metrics.snapshot()
    start = time.perf_counter()
    for batch in batches:
        counter.apply_mutations(batch)
    seconds = time.perf_counter() - start
    delta = counter.metrics.delta_since(baseline)
    expected = triangle_counts(counter.graph)
    if expected.total != counter.total:
        raise AssertionError("incremental TC diverged from recompute")
    cell["GraphBolt"] = {
        "seconds": seconds,
        "edges": delta.edge_computations,
    }
    return cell


# ----------------------------------------------------------------------
# Matrix reducers -- BENCH payload -> the paper's rows
# ----------------------------------------------------------------------
def _axis(payload: Dict, key: str) -> List:
    """The values one config key takes across a payload, in run order."""
    return list(dict.fromkeys(
        run["config"][key] for run in payload["runs"]
    ))


def _by_config(payload: Dict, *keys: str) -> Dict[Tuple, Dict]:
    """``(seconds, edges)`` of every run, keyed by the given config
    keys.  Both cover the mutation stream only (initial run and
    structure adjustment excluded), as in the paper."""
    return {
        tuple(run["config"][key] for key in keys): {
            "seconds": run["timing"]["compute_seconds"],
            "edges": run["work"]["stream_edge_computations"],
        }
        for run in payload["runs"]
    }


def reduce_table5(payload: Dict) -> Dict:
    """Execution times for Ligra / GB-Reset / GraphBolt (paper Table 5)
    and the edge-computation ratios of Figure 6."""
    runs = _by_config(payload, "algorithm", "scale", "batch_size",
                      "engine")
    cells = {}
    rows = []
    graphs = _axis(payload, "scale")
    batch_sizes = _axis(payload, "batch_size")
    for algo in _axis(payload, "algorithm"):
        for graph_name in graphs:
            for batch_size in batch_sizes:
                cell = {
                    ENGINES[engine].name:
                        runs[(algo, graph_name, batch_size, engine)]
                    for engine in TABLE5_ENGINES
                }
                cells[f"{algo}|{graph_name}|{batch_size}"] = cell
                ligra = cell["Ligra"]
                reset = cell["GB-Reset"]
                bolt = cell["GraphBolt"]
                rows.append([
                    algo, graph_name, batch_size,
                    round(ligra["seconds"], 4),
                    round(reset["seconds"], 4),
                    round(bolt["seconds"], 4),
                    round(ligra["seconds"] / max(bolt["seconds"], 1e-9), 2),
                    round(reset["seconds"] / max(bolt["seconds"], 1e-9), 2),
                    round(bolt["edges"] / max(reset["edges"], 1), 3),
                ])
    return {
        "experiment": "table5",
        "title": (
            "Table 5: execution seconds for Ligra / GB-Reset / GraphBolt "
            "(batch sizes scaled 1K/10K/100K -> 10/100/1000); last column "
            "is Figure 6's GraphBolt/GB-Reset edge-computation ratio"
        ),
        "headers": ["Algo", "Graph", "Batch", "Ligra", "GB-Reset",
                    "GraphBolt", "xLigra", "xGB-Reset", "EdgeRatio"],
        "rows": rows,
        "cells": cells,
    }


def reduce_table7(payload: Dict) -> Dict:
    """Edge computations on the YH stand-in (paper Table 7)."""
    runs = _by_config(payload, "algorithm", "batch_size", "engine")
    batch_sizes = _axis(payload, "batch_size")
    rows = []
    detail = {}
    for algo in _axis(payload, "algorithm"):
        row = [algo]
        for batch_size in batch_sizes:
            reset = runs[(algo, batch_size, "gbreset")]
            bolt = runs[(algo, batch_size, "graphbolt")]
            percent = 100.0 * bolt["edges"] / max(reset["edges"], 1)
            row.append(f"{bolt['edges']} ({percent:.2f}%)")
            detail[f"{algo}|{batch_size}"] = {
                "graphbolt_edges": bolt["edges"],
                "gbreset_edges": reset["edges"],
                "percent": percent,
                "graphbolt_seconds": bolt["seconds"],
                "gbreset_seconds": reset["seconds"],
            }
        rows.append(row)
    return {
        "experiment": "table7",
        "title": (
            "Table 7: GraphBolt edge computations on YH "
            "(percentage relative to GB-Reset)"
        ),
        "headers": ["Algo"] + [str(b) for b in batch_sizes],
        "rows": rows,
        "detail": detail,
    }


def reduce_figure7(payload: Dict) -> Dict:
    """GB-Reset vs GraphBolt across batch sizes (paper Figure 7;
    1..1M scaled to 1..10K)."""
    runs = _by_config(payload, "algorithm", "engine", "batch_size")
    batch_sizes = _axis(payload, "batch_size")
    (graph_name,) = _axis(payload, "scale")
    rows = []
    series = {}
    for algo in _axis(payload, "algorithm"):
        series[algo] = {}
        for engine in _axis(payload, "engine"):
            name = ENGINES[engine].name
            sweep = [runs[(algo, engine, b)] for b in batch_sizes]
            series[algo][name] = [run["seconds"] for run in sweep]
            series[algo][f"{name}-edges"] = [run["edges"] for run in sweep]
            rows.append([algo, name] + [
                round(seconds, 4) for seconds in series[algo][name]
            ])
    return {
        "experiment": "figure7",
        "title": (
            f"Figure 7: execution seconds vs batch size on {graph_name} "
            "(paper sweeps 1..1M; scaled to 1..10K)"
        ),
        "headers": ["Algo", "Engine"] + [str(b) for b in batch_sizes],
        "rows": rows,
        "series": series,
        "batch_sizes": batch_sizes,
    }


#: Core counts Table 6 projects every cell onto.
TABLE6_CORES = (32, 96)


def reduce_table6(payload: Dict) -> Dict:
    """Projected core scaling on YH (paper Table 6).

    Every cell charges its work over the ``sharded:P`` backend's owner
    blocks -- the *measured* per-shard load vector of each engine; wall
    clock on p cores is then the calibrated LPT makespan of scheduling
    those shard loads onto p cores
    (:func:`~repro.runtime.parallel.project` -- the DESIGN.md
    substitution for real threads, which Python's GIL precludes).  The
    run table's ``P = 96 = max(TABLE6_CORES)`` keeps the projection
    from being floored by having fewer shards than cores.  The paper's
    observation under test: GraphBolt's speedup over GB-Reset *shrinks*
    at higher core counts because GB-Reset has more parallelisable
    work; the load-imbalance factor of each measured vector is reported
    alongside.
    """
    measured = {}
    for run in payload["runs"]:
        config, work = run["config"], run["work"]
        measured[(config["algorithm"], ENGINES[config["engine"]].name)] = (
            work["shard_loads"],
            work["iterations"] + work["refinement_iterations"],
            run["timing"]["compute_seconds"],
        )
    (num_shards,) = {run["work"]["num_shards"] for run in payload["runs"]}
    names = [ENGINES[engine].name for engine in _axis(payload, "engine")]
    rows = []
    detail = {}
    for algo in _axis(payload, "algorithm"):
        cells = {name: measured[(algo, name)] for name in names}
        imbalance = {name: load_imbalance(loads)
                     for name, (loads, _, _) in cells.items()}
        # As EngineMetrics.shard_loads holds it: a block nothing was
        # charged to has no entry.
        shard_loads = {
            name: {str(shard): float(load)
                   for shard, load in enumerate(loads) if load}
            for name, (loads, _, _) in cells.items()
        }
        for cores in TABLE6_CORES:
            projected = {
                name: project(loads, iterations, seconds, cores)
                for name, (loads, iterations, seconds) in cells.items()
            }
            speedup_reset = projected["GB-Reset"] / max(
                projected["GraphBolt"], 1e-12)
            speedup_ligra = projected["Ligra"] / max(
                projected["GraphBolt"], 1e-12)
            rows.append([
                algo, cores,
                round(projected["Ligra"], 4),
                round(projected["GB-Reset"], 4),
                round(projected["GraphBolt"], 4),
                round(speedup_ligra, 2),
                round(speedup_reset, 2),
                round(imbalance["GraphBolt"], 3),
            ])
            detail[f"{algo}|{cores}"] = {
                "projected": projected,
                "x_gbreset": speedup_reset,
                "x_ligra": speedup_ligra,
                "imbalance": imbalance,
                "shard_loads": shard_loads,
            }
    return {
        "experiment": "table6",
        "title": (
            "Table 6: projected execution seconds on YH at 32/96 cores "
            f"(measured per-shard makespan model, {num_shards} shards; "
            "see DESIGN.md substitutions)"
        ),
        "headers": ["Algo", "Cores", "Ligra", "GB-Reset", "GraphBolt",
                    "xLigra", "xGB-Reset", "Imbalance"],
        "rows": rows,
        "detail": detail,
        "num_shards": num_shards,
    }


def reduce_table8(payload: Dict) -> Dict:
    """GraphBolt under high/low-degree-targeted mutations (paper
    Table 8)."""
    runs = _by_config(payload, "scale", "algorithm", "scenario")
    algorithms = _axis(payload, "algorithm")
    (batch_size,) = _axis(payload, "batch_size")
    rows = []
    detail = {}
    for graph_name in _axis(payload, "scale"):
        row = [graph_name]
        for algo in algorithms:
            lo = runs[(graph_name, algo, "lo")]
            hi = runs[(graph_name, algo, "hi")]
            row.extend([round(lo["seconds"], 4), round(hi["seconds"], 4)])
            detail[f"{graph_name}|{algo}"] = {
                "lo": lo["seconds"],
                "hi": hi["seconds"],
                "lo_edges": lo["edges"],
                "hi_edges": hi["edges"],
            }
        rows.append(row)
    headers = ["Graph"]
    for algo in algorithms:
        headers.extend([f"{algo} Lo", f"{algo} Hi"])
    return {
        "experiment": "table8",
        "title": (
            "Table 8: GraphBolt seconds under low/high-degree mutation "
            f"workloads ({batch_size} mutations)"
        ),
        "headers": headers,
        "rows": rows,
        "detail": detail,
    }


def reduce_tolerance(payload: Dict) -> Dict:
    """What a scheduling tolerance τ costs and buys, per algorithm
    (paper section 4.2's selective scheduling): GraphBolt's edge work
    over a restart's at each batch size, and the worst relative error
    over the batch sizes against a τ = 0 run and against a restart at
    the same τ, one row per stream length (a ``drift`` sweep's).

    The *crossover* is the smallest batch size at which GraphBolt does
    at least the restart's edge work (Figure 7); per algorithm, the
    summary names the largest τ whose error against τ = 0 stays within
    the e2e oracle's bound in every cell, and its cells' first crossover.
    """
    bound = REGISTRY["pagerank"].tolerance   # benchmarks/e2e's oracle
    cells = {
        (run["config"]["algorithm"]["name"],
         run["config"]["algorithm"]["tolerance"],
         run["config"]["num_batches"],
         run["config"]["batch_size"]): run["work"]
        for run in payload["runs"]
    }
    names = list(dict.fromkeys(key[0] for key in cells))
    taus = sorted({key[1] for key in cells})
    lengths = sorted({key[2] for key in cells})
    batch_sizes = sorted({key[3] for key in cells})
    rows = []
    summary = {}
    for name in names:
        within = None
        for tau in taus:
            judged = []
            for length in lengths:
                work = [cells.get((name, tau, length, b)) for b in batch_sizes]
                if None in work:
                    continue    # a cell the table excludes
                ratios = [cell["edge_work_vs_restart"] for cell in work]
                crossover = next((b for b, ratio in zip(batch_sizes, ratios)
                                  if ratio >= 1.0), None)
                exact = max(cell["max_rel_error_vs_exact"] for cell in work)
                restart = max(cell["max_rel_error_vs_restart"]
                              for cell in work)
                judged.append((exact, crossover))
                rows.append(
                    [name, f"{tau:.0e}", length]
                    + [f"{ratio:.3f}" for ratio in ratios]
                    + [sum(cell["dense_refinement_iterations"]
                           for cell in work),
                       f"{exact:.1e}", f"{restart:.1e}",
                       crossover if crossover is not None
                       else f">{batch_sizes[-1]}"])
            if judged and max(error for error, _ in judged) <= bound:
                within = {"tolerance": tau, "crossover_batch": min(
                    (b for _, b in judged if b is not None), default=None)}
        summary[name] = within
    return {
        "experiment": payload["area"],
        "title": (
            "Scheduling tolerance: GraphBolt edge work / restart per "
            "batch size, dense refinement iterations, worst relative "
            f"error (oracle bound {bound:.0e})"
        ),
        "headers": (["Algo", "tau", "batches"]
                    + [f"work@{b}" for b in batch_sizes]
                    + ["dense", "err vs tau=0", "err vs restart",
                       "crossover"]),
        "rows": rows,
        "summary": summary,
    }


#: Matrix ``area`` -> reducer; areas not listed are not paper tables.
REDUCERS: Dict[str, Callable[[Dict], Dict]] = {
    "table5": reduce_table5,
    "table6": reduce_table6,
    "table7": reduce_table7,
    "table8": reduce_table8,
    "figure7": reduce_figure7,
    "tolerance": reduce_tolerance,
    "drift": reduce_tolerance,
}


# ----------------------------------------------------------------------
# Figure 8 -- comparison with Differential Dataflow (PageRank)
# ----------------------------------------------------------------------
def experiment_figure8() -> Dict:
    """PageRank: GraphBolt vs GraphBolt-RP vs mini-DD (paper Figure 8).

    Runs on a smaller graph than Table 5 because the mini-DD's per-key
    hash-trace processing is orders of magnitude more expensive than
    array kernels -- which is the comparison's point.
    """
    batch_sizes, num_single_updates, seed = (1, 10, 100), 20, 9
    graph = rmat(9, 4, seed=seed, weighted=True)
    factory = REGISTRY["PR"].factory
    iterations = BENCH_ITERATIONS

    def dd_seconds(batch) -> float:
        dd = DifferentialPageRank(graph, num_iterations=iterations)
        start = time.perf_counter()
        dd_values = dd.apply_mutations(batch)
        seconds = time.perf_counter() - start
        truth = LigraEngine(factory()).run(dd.graph, iterations)
        worst = float(np.abs(dd_values - truth).max())
        if worst > 0.05:
            raise AssertionError(f"DD PageRank diverged by {worst}")
        return seconds

    def median_of_fresh(run) -> float:
        # One cell is a few ms: a single sample is at the scheduler's
        # mercy, so each is the median of five fresh engines.
        return float(np.median([run() for _ in range(5)]))

    sweep_rows = []
    sweep = {"GraphBolt": [], "GraphBolt-RP": [], "DifferentialDataflow": []}
    for batch_size in batch_sizes:
        batch = uniform_batch(graph, batch_size, seed=seed + batch_size)
        cells = {
            name: median_of_fresh(lambda: run_stream(
                GraphBoltRunner(factory, iterations, retract=retract),
                graph, [batch]).total_apply_seconds)
            for name, retract in (("GraphBolt", False),
                                  ("GraphBolt-RP", True))
        }
        cells["DifferentialDataflow"] = median_of_fresh(
            lambda: dd_seconds(batch))
        for name, seconds in cells.items():
            sweep[name].append(seconds)
        sweep_rows.append([batch_size] + [
            round(seconds, 4) for seconds in cells.values()])

    # 8b: variance over consecutive single-edge mutations.
    singles = {"GraphBolt": [], "DifferentialDataflow": []}
    bolt_runner = GraphBoltRunner(factory, iterations)
    bolt_runner.setup(graph)
    dd = DifferentialPageRank(graph, num_iterations=iterations)
    for index in range(num_single_updates):
        batch = uniform_batch(graph, 1, delete_fraction=0.0,
                              seed=seed + 1000 + index)
        start = time.perf_counter()
        bolt_runner.apply(batch)
        singles["GraphBolt"].append(time.perf_counter() - start)
        start = time.perf_counter()
        dd.apply_mutations(batch)
        singles["DifferentialDataflow"].append(time.perf_counter() - start)

    def stats(samples: List[float]) -> Tuple[float, float]:
        arr = np.array(samples)
        return float(arr.mean()), float(arr.std())

    bolt_mean, bolt_std = stats(singles["GraphBolt"])
    dd_mean, dd_std = stats(singles["DifferentialDataflow"])
    return {
        "experiment": "figure8",
        "title": (
            f"Figure 8: PageRank vs mini Differential Dataflow "
            f"(V={graph.num_vertices}, E={graph.num_edges})"
        ),
        "headers": ["Batch", "GraphBolt", "GraphBolt-RP",
                    "DifferentialDataflow"],
        "rows": sweep_rows + [
            ["single-edge mean +/- std",
             f"{bolt_mean:.4f} +/- {bolt_std:.4f}", "-",
             f"{dd_mean:.4f} +/- {dd_std:.4f}"],
        ],
        "sweep": sweep,
        "batch_sizes": list(batch_sizes),
        "single_edge": singles,
        "single_edge_stats": {
            "GraphBolt": {"mean": bolt_mean, "std": bolt_std},
            "DifferentialDataflow": {"mean": dd_mean, "std": dd_std},
        },
    }


# ----------------------------------------------------------------------
# Figure 9 -- SSSP: KickStarter vs GraphBolt vs DD
# ----------------------------------------------------------------------
def experiment_figure9() -> Dict:
    """SSSP across KickStarter, GraphBolt (min aggregation, convergence
    mode) and mini-DD, with mixed and addition-only streams (paper
    Figure 9a/9b)."""
    batch_sizes, source, seed = (1, 10, 100), 0, 19
    graph = rmat(9, 4, seed=seed, weighted=True)
    rows = []
    series: Dict[str, Dict[str, List[float]]] = {}
    edge_series: Dict[str, Dict[str, List[int]]] = {}
    for panel, delete_fraction in (("adds+dels", 0.3), ("adds-only", 0.0)):
        panel_series: Dict[str, List[float]] = {
            "KickStarter": [], "GraphBolt": [],
        }
        panel_edges: Dict[str, List[int]] = {
            "KickStarter": [], "GraphBolt": [],
        }
        panel_series["DifferentialDataflow"] = []
        for batch_size in batch_sizes:
            batch = uniform_batch(graph, batch_size,
                                  delete_fraction=delete_fraction,
                                  seed=seed + batch_size)
            kick = KickStarterEngine(graph, source=source)
            kick_before = kick.metrics.snapshot()
            start = time.perf_counter()
            kick_values = kick.apply_mutations(batch)
            panel_series["KickStarter"].append(time.perf_counter() - start)
            panel_edges["KickStarter"].append(
                kick.metrics.delta_since(kick_before).edge_computations
            )

            bolt = GraphBoltRunner(lambda: SSSP(source=source),
                                   ITERATION_CAP)
            bolt.setup(graph)
            bolt_before = bolt.metrics.snapshot()
            start = time.perf_counter()
            bolt_values = bolt.apply(batch)
            panel_series["GraphBolt"].append(time.perf_counter() - start)
            panel_edges["GraphBolt"].append(
                bolt.metrics.delta_since(bolt_before).edge_computations
            )

            if np.isinf(kick_values).sum() != np.isinf(bolt_values).sum():
                raise AssertionError(
                    "KickStarter and GraphBolt disagree on reachability"
                )
            both = np.isfinite(kick_values) & np.isfinite(bolt_values)
            worst = float(
                np.abs(kick_values[both] - bolt_values[both]).max()
            ) if both.any() else 0.0
            if worst > 1e-6:
                raise AssertionError(
                    f"KickStarter and GraphBolt disagree by {worst}"
                )

            dd = DifferentialSSSP(graph, source=source)
            start = time.perf_counter()
            dd.apply_mutations(batch)
            panel_series["DifferentialDataflow"].append(
                time.perf_counter() - start
            )
            row = [panel, batch_size] + [
                round(panel_series[name][-1], 5) for name in panel_series
            ]
            rows.append(row)
        series[panel] = panel_series
        edge_series[panel] = panel_edges
    headers = ["Panel", "Batch", "KickStarter", "GraphBolt",
               "DifferentialDataflow"]
    return {
        "experiment": "figure9",
        "title": (
            f"Figure 9: SSSP seconds per batch "
            f"(V={graph.num_vertices}, E={graph.num_edges})"
        ),
        "headers": headers,
        "rows": rows,
        "series": series,
        "edges": edge_series,
        "batch_sizes": list(batch_sizes),
    }


# ----------------------------------------------------------------------
# Table 9 -- memory overhead
# ----------------------------------------------------------------------
def experiment_table9(
    algorithms: Optional[Sequence[str]] = None,
    graphs: Sequence[str] = BENCH_GRAPHS + ("YH",),
) -> Dict:
    """Tracked-dependency memory relative to GB-Reset state (paper
    Table 9).  Following the paper, the first iteration's footprint is
    the worst-case estimate; we report the whole tracked window."""
    if algorithms is None:
        algorithms = list(PAPER_ALGORITHMS)
    rows = []
    detail = {}
    for algo in algorithms:
        factory = REGISTRY[algo].factory
        row = [algo]
        for graph_name in graphs:
            graph = paper_graph(graph_name)
            iterations = 5 if graph_name == "YH" else BENCH_ITERATIONS
            engine = GraphBoltEngine(factory(), num_iterations=iterations)
            engine.run(graph)
            # The paper's measure: first tracked iteration (worst case;
            # vertical pruning shrinks later ones) against total engine
            # memory including the graph structure.
            report = engine.memory_report(first_iteration_only=True)
            row.append(f"{report.overhead_percent:.1f}%")
            detail[f"{algo}|{graph_name}"] = {
                "baseline_bytes": report.baseline_bytes,
                "dependency_bytes": report.dependency_bytes,
                "overhead_percent": report.overhead_percent,
            }
        rows.append(row)

    # Triangle counting: retained old structure + counts vs fresh counts.
    tc_row = ["TC"]
    for graph_name in graphs:
        graph = paper_graph(graph_name)
        counter = IncrementalTriangleCounting(graph)
        counter.apply_mutations(uniform_batch(graph, 10, seed=3))
        baseline = graph.nbytes + counter.per_vertex.nbytes
        percent = 100.0 * counter.dependency_bytes() / baseline
        tc_row.append(f"{percent:.1f}%")
        detail[f"TC|{graph_name}"] = {"overhead_percent": percent}
    rows.append(tc_row)
    return {
        "experiment": "table9",
        "title": "Table 9: memory increase of GraphBolt w.r.t. GB-Reset",
        "headers": ["Algo"] + list(graphs),
        "rows": rows,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# Ablations (ours)
# ----------------------------------------------------------------------
def experiment_motivation_tagging(
    graphs: Sequence[str] = BENCH_GRAPHS,
    batch_sizes: Sequence[int] = (1, 10, 100),
) -> Dict:
    """How much a tag-based corrector would reset (paper sections 1/2.2).

    The paper motivates dependency-driven refinement by noting that the
    straightforward alternative -- tag everything downstream of a
    mutation and recompute it -- "ends up tagging majority of vertex
    values".  This experiment measures the tagged fraction directly.
    """
    from repro.core.tagging import tagged_fraction
    from repro.graph.mutable import StreamingGraph

    rows = []
    detail = {}
    for graph_name in graphs:
        graph = paper_graph(graph_name)
        row = [graph_name]
        for batch_size in batch_sizes:
            stream = StreamingGraph(graph)
            mutation = stream.apply_batch(
                uniform_batch(graph, batch_size, seed=37)
            )
            fraction = tagged_fraction(mutation, BENCH_ITERATIONS)
            row.append(f"{100 * fraction:.1f}%")
            detail[f"{graph_name}|{batch_size}"] = fraction
        rows.append(row)
    return {
        "experiment": "motivation_tagging",
        "title": (
            "Motivation: fraction of vertices a tag-based corrector "
            f"resets ({BENCH_ITERATIONS}-iteration window)"
        ),
        "headers": ["Graph"] + [str(b) for b in batch_sizes],
        "rows": rows,
        "detail": detail,
    }


def experiment_ablation_pruning() -> Dict:
    """Horizontal-pruning horizon sweep: refinement window versus memory
    and apply time (design trade-off of paper section 3.2)."""
    graph_name, algo, batch_size, seed = "TW", "LP", 100, 23
    horizons = (0, 2, 4, 6, 8, 10)
    graph = paper_graph(graph_name)
    factory = REGISTRY[algo].factory
    rows = []
    detail = {}
    for horizon in horizons:
        runner = GraphBoltRunner(factory, BENCH_ITERATIONS, horizon=horizon)
        batch = uniform_batch(graph, batch_size, seed=seed)
        result = run_stream(runner, graph, [batch])
        report = runner.engine.memory_report()
        truth = LigraEngine(factory()).run(runner.graph, BENCH_ITERATIONS)
        worst = float(np.abs(result.final_values - truth).max())
        if worst > 0.05:
            raise AssertionError(f"horizon {horizon} diverged by {worst}")
        rows.append([
            horizon,
            round(result.total_apply_seconds, 4),
            report.dependency_bytes,
            round(report.overhead_percent, 1),
            runner.metrics.refinement_iterations,
            runner.metrics.hybrid_iterations,
        ])
        detail[str(horizon)] = {
            "seconds": result.total_apply_seconds,
            "dependency_bytes": report.dependency_bytes,
        }
    return {
        "experiment": "ablation_pruning",
        "title": (
            f"Ablation: pruning horizon sweep, {algo} on {graph_name} "
            f"({batch_size} mutations)"
        ),
        "headers": ["Horizon", "ApplySeconds", "DepBytes", "Overhead%",
                    "RefineIters", "HybridIters"],
        "rows": rows,
        "detail": detail,
    }


def experiment_ablation_tagreset() -> Dict:
    """Correctors head to head: tag-and-recompute (GraphIn-style)
    versus dependency-driven refinement (sections 1/2.2).

    Both produce BSP-correct results; the comparison is the work each
    performs, and the tag set size explains the gap.
    """
    from repro.core.tagreset import TagResetEngine

    graph_name, algo, seed = "TW", "LP", 43
    graph = paper_graph(graph_name)
    factory = REGISTRY[algo].factory
    rows = []
    detail = {}
    for batch_size in (1, 10, 100):
        batch = uniform_batch(graph, batch_size, seed=seed)

        tag_engine = TagResetEngine(factory(),
                                    num_iterations=BENCH_ITERATIONS)
        tag_engine.run(graph)
        before = tag_engine.metrics.snapshot()
        start = time.perf_counter()
        tag_engine.apply_mutations(batch)
        tag_seconds = time.perf_counter() - start
        tag_edges = tag_engine.metrics.delta_since(
            before
        ).edge_computations

        bolt = run_stream(GraphBoltRunner(factory, BENCH_ITERATIONS),
                          graph, [batch])
        tagged_fraction = tag_engine.last_tagged / graph.num_vertices
        ratio = tag_edges / max(bolt.total_edge_computations, 1)
        rows.append([
            batch_size,
            f"{100 * tagged_fraction:.1f}%",
            tag_edges,
            bolt.total_edge_computations,
            round(ratio, 1),
            round(tag_seconds, 4),
            round(bolt.total_apply_seconds, 4),
        ])
        detail[str(batch_size)] = {
            "tagged_fraction": tagged_fraction,
            "tagreset_edges": tag_edges,
            "graphbolt_edges": bolt.total_edge_computations,
            "edge_ratio": ratio,
        }
    return {
        "experiment": "ablation_tagreset",
        "title": (
            f"Correctors compared: tag+recompute vs refinement, "
            f"{algo} on {graph_name}"
        ),
        "headers": ["Batch", "Tagged", "TagReset edges", "GraphBolt edges",
                    "Ratio", "TagReset s", "GraphBolt s"],
        "rows": rows,
        "detail": detail,
    }
