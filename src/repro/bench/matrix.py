"""Declarative experiment matrix: YAML run tables -> ``BENCH_*.json``.

The paper's evaluation is a structured grid of topology x scale x
engine runs (Tables 5-9, Figures 4-9).  This module replaces hand-built
pytest configs with a declarative run-table loader in the style of
muBench's 180-run experiment definition and stack_route_sim's
``ExperimentRunner``/``scrape_metrics`` loop (SNIPPETS.md snippets 2/3):

- :func:`load_table` parses and validates a YAML run table whose
  ``axes`` (topology, scale, algorithm, engine, backend, storage,
  scenario, batch_size, ...) are expanded as a cartesian product,
  minus declared ``exclude`` combinations;
- :func:`run_matrix` executes every expanded run deterministically,
  scraping each through a scoped PR-2 metrics registry, and assembles a
  schema-versioned ``BENCH_<area>.json`` payload (config hash, seed,
  wall-clock percentiles, engine work counters, peak shard imbalance)
  plus a paper-style text table;
- :func:`canonical_payload` strips the timing section so that the same
  YAML + seed yields a *byte-identical* payload -- the determinism pin
  the test suite enforces and the regression gate (:mod:`gate`)
  compares against committed baselines.

The paper's engine x algorithm x graph x batch grids (Table 5 +
Figure 6, Tables 7/8, Figure 7) are ordinary run tables; a pure reducer
per area in :mod:`repro.bench.experiments` turns their payloads into
the paper's rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.registry import REGISTRY
from repro.bench.harness import ENGINES, TABLE5_ENGINES, run_stream
from repro.bench.workloads import SCENARIOS
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import DeltaEngine
from repro.obs.registry import peak_rss_bytes, scoped_registry
from repro.runtime.exec import load_imbalance
from repro.runtime.validation import relative_errors

__all__ = [
    "SCHEMA_VERSION",
    "AXIS_ORDER",
    "RunTable",
    "RunSpec",
    "MatrixError",
    "load_table",
    "expand",
    "config_hash",
    "run_matrix",
    "canonical_payload",
    "validate_payload",
    "matrices_dir",
    "payload_filename",
]

#: Bump on any incompatible change to the emitted payload layout.
SCHEMA_VERSION = 1

#: Canonical config-key order; also the run-id segment order.
AXIS_ORDER = (
    "topology", "scale", "algorithm", "engine", "backend", "storage",
    "scenario", "batch_size", "num_batches", "iterations", "delete_fraction",
    "edge_factor", "seed",
)

#: Per-key defaults merged under ``fixed``.
DEFAULTS: Dict[str, object] = {
    "topology": "rmat",
    "scale": 7,
    "algorithm": "PR",
    "engine": "graphbolt",
    "backend": "serial",
    "storage": "heap",
    "scenario": "uniform",
    "batch_size": 20,
    "num_batches": 2,
    "iterations": 10,
    "delete_fraction": 0.3,
    "edge_factor": 4,
    "seed": 0,
}

TOPOLOGIES = ("rmat", "rmat_xl", "paper")
STORAGES = ("heap", "mmap")

#: Timing percentiles reported per run (plus mean/total/max).
WALL_PERCENTILES = (50, 90, 99)


class MatrixError(ValueError):
    """A run table failed validation."""


# ----------------------------------------------------------------------
# Run-table model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One fully resolved cell of the matrix."""

    run_id: str
    config: Dict[str, object]

    @property
    def hash(self) -> str:
        return config_hash(self.config)


@dataclass
class RunTable:
    """A parsed, validated YAML run table."""

    area: str
    path: str
    schema: int = SCHEMA_VERSION
    title: str = ""
    axes: Dict[str, List[object]] = field(default_factory=dict)
    fixed: Dict[str, object] = field(default_factory=dict)
    exclude: List[Dict[str, object]] = field(default_factory=list)
    gate: Dict[str, object] = field(default_factory=dict)


def matrices_dir() -> str:
    """``benchmarks/matrices/`` at the repository root."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    return os.path.join(here, "benchmarks", "matrices")


def _resolve_table_path(name_or_path: str) -> str:
    if os.path.sep in name_or_path or name_or_path.endswith(".yaml"):
        return name_or_path
    return os.path.join(matrices_dir(), f"{name_or_path}.yaml")


def load_table(name_or_path: str) -> RunTable:
    """Parse and validate a run table (name under ``benchmarks/matrices``
    or an explicit path)."""
    import yaml

    path = _resolve_table_path(name_or_path)
    if not os.path.exists(path):
        raise MatrixError(f"run table not found: {path}")
    with open(path) as handle:
        raw = yaml.safe_load(handle)
    if not isinstance(raw, dict):
        raise MatrixError(f"{path}: run table must be a mapping")
    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise MatrixError(
            f"{path}: unsupported schema {schema!r} "
            f"(this build reads schema {SCHEMA_VERSION})"
        )
    area = raw.get("area")
    if not isinstance(area, str) or not area:
        raise MatrixError(f"{path}: 'area' must be a non-empty string")
    table = RunTable(
        area=area,
        path=path,
        schema=schema,
        title=str(raw.get("title", "")),
        axes={str(k): list(v) for k, v in (raw.get("axes") or {}).items()},
        fixed=dict(raw.get("fixed") or {}),
        exclude=[dict(rule) for rule in (raw.get("exclude") or [])],
        gate=dict(raw.get("gate") or {}),
    )
    _validate_axes(table)
    # Expansion performs the per-run semantic checks (tolerance cells,
    # paper scales), so a bad table fails at load time, not run time.
    expand(table)
    return table


def _validate_axes(table: RunTable) -> None:
    for section_name, section in (("axes", table.axes),
                                  ("fixed", table.fixed)):
        for key in section:
            if key not in AXIS_ORDER:
                raise MatrixError(
                    f"{table.path}: unknown {section_name} key {key!r} "
                    f"(choose from {list(AXIS_ORDER)})"
                )
    for key, values in table.axes.items():
        if not values:
            raise MatrixError(f"{table.path}: axis {key!r} is empty")
        if key in table.fixed:
            raise MatrixError(
                f"{table.path}: {key!r} appears in both axes and fixed"
            )
    for rule in table.exclude:
        for key in rule:
            if key not in AXIS_ORDER:
                raise MatrixError(
                    f"{table.path}: exclude rule uses unknown key {key!r}"
                )


def _check_algorithm(table_path: str, value: object) -> None:
    """A registry name, or ``{name: <registry name>, tolerance: τ}``."""
    name = value.get("name") if isinstance(value, dict) else value
    if not (isinstance(name, str) and name in REGISTRY):
        raise MatrixError(
            f"{table_path}: algorithm {name!r} not in {sorted(REGISTRY)}")
    if isinstance(value, dict):
        tolerance = value.get("tolerance")
        if (set(value) != {"name", "tolerance"}
                or isinstance(tolerance, bool)
                or not isinstance(tolerance, (int, float))
                or not 0 <= tolerance < float("inf")):
            raise MatrixError(
                f"{table_path}: algorithm mapping {value!r} must be "
                f"{{name: <algorithm>, tolerance: <number >= 0>}}")


def _algorithm_label(value: object) -> str:
    """An ``algorithm`` config value as a run-id segment: the bare name,
    or ``PR@1e-03`` for a name with a tolerance."""
    if isinstance(value, dict):
        return f"{value['name']}@{value['tolerance']:.0e}"
    return str(value)


def _algorithm_factory(value: object, tolerance: Optional[float] = None):
    """The zero-argument factory a config's ``algorithm`` names; a
    mapping's tolerance (or an explicit one) replaces the registry's."""
    if isinstance(value, dict):
        value, tolerance = value["name"], (
            value["tolerance"] if tolerance is None else tolerance)
    spec = REGISTRY[value]
    if tolerance is None:
        return spec.factory
    params = dict(spec.params, tolerance=float(tolerance))
    return lambda: spec.cls(**params)


def _check_value(table_path: str, key: str, value: object) -> None:
    """Validate one resolved config value against the vocabulary."""
    if key == "algorithm":
        _check_algorithm(table_path, value)
    if key == "topology" and value not in TOPOLOGIES:
        raise MatrixError(
            f"{table_path}: topology {value!r} not in {TOPOLOGIES}")
    if key == "engine" and value not in TABLE5_ENGINES:
        raise MatrixError(
            f"{table_path}: engine {value!r} not in {TABLE5_ENGINES}")
    if key == "storage" and value not in STORAGES:
        raise MatrixError(
            f"{table_path}: storage {value!r} not in {STORAGES}")
    if key == "scenario" and value not in SCENARIOS:
        raise MatrixError(
            f"{table_path}: scenario {value!r} not in "
            f"{tuple(SCENARIOS)}")
    if key == "backend":
        _parse_shards(str(value))
    if key in ("batch_size", "num_batches", "iterations", "edge_factor",
               "seed") and not isinstance(value, int):
        raise MatrixError(f"{table_path}: {key} must be an integer, "
                          f"got {value!r}")


def _parse_shards(spec: str) -> int:
    """The ``backend`` axis: how many owner blocks the cell's loads are
    accounted over -- ``serial`` is 1, ``sharded[:P]`` is P (default 4)."""
    name, _, suffix = spec.partition(":")
    if name == "serial":
        return 1
    if name == "sharded":
        return int(suffix) if suffix else 4
    raise MatrixError(f"unknown backend {spec!r}; "
                      f"use 'serial' or 'sharded[:P]'")


def expand(table: RunTable) -> List[RunSpec]:
    """Cartesian-expand the axes into deterministic run specs."""
    axis_names = [key for key in AXIS_ORDER if key in table.axes]
    extra = [key for key in table.axes if key not in AXIS_ORDER]
    if extra:
        raise MatrixError(f"{table.path}: unknown axes {extra}")
    specs: List[RunSpec] = []
    for combo in itertools.product(
            *(table.axes[name] for name in axis_names)):
        config = dict(DEFAULTS)
        config.update(table.fixed)
        config.update(dict(zip(axis_names, combo)))
        config = {key: config[key] for key in AXIS_ORDER}
        if any(all(config.get(k) == v for k, v in rule.items())
               for rule in table.exclude):
            continue
        for key, value in config.items():
            _check_value(table.path, key, value)
        _check_run_semantics(table.path, config)
        run_id = "/".join(
            _algorithm_label(config[name]) if name == "algorithm"
            else str(config[name]) for name in axis_names)
        specs.append(RunSpec(run_id=run_id, config=config))
    if not specs:
        raise MatrixError(f"{table.path}: matrix expanded to zero runs")
    ids = [spec.run_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise MatrixError(f"{table.path}: duplicate run ids in expansion")
    return specs


def _check_run_semantics(table_path: str, config: Dict) -> None:
    if (isinstance(config["algorithm"], dict)
            and config["engine"] != "graphbolt"):
        raise MatrixError(
            f"{table_path}: a tolerance cell measures GraphBolt against "
            f"restarts; engine {config['engine']!r} is invalid there"
        )
    if config["topology"] == "paper":
        if config["scale"] not in generators.PAPER_GRAPH_SCALES:
            raise MatrixError(
                f"{table_path}: paper topology needs scale in "
                f"{sorted(generators.PAPER_GRAPH_SCALES)}, "
                f"got {config['scale']!r}"
            )
    elif not isinstance(config["scale"], int):
        raise MatrixError(
            f"{table_path}: scale must be an integer for "
            f"{config['topology']!r}, got {config['scale']!r}"
        )


# ----------------------------------------------------------------------
# Hashing and canonicalisation
# ----------------------------------------------------------------------
def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def config_hash(obj) -> str:
    """Stable short hash of any JSON-serialisable configuration."""
    return hashlib.sha256(
        _canonical_json(obj).encode("utf-8")
    ).hexdigest()[:16]


def canonical_payload(payload: Dict) -> str:
    """The payload as canonical JSON with every timing section removed.

    Two runs of the same YAML + seed must agree byte-for-byte on this
    string (the determinism pin); only the ``timing`` subtrees and the
    rendered table rows (which embed rounded seconds) may differ.
    """
    def strip(obj):
        if isinstance(obj, dict):
            return {
                key: strip(value) for key, value in obj.items()
                if key not in ("timing", "rows")
            }
        if isinstance(obj, list):
            return [strip(item) for item in obj]
        return obj

    return _canonical_json(strip(payload))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _make_store(storage: str, stack: contextlib.ExitStack):
    """The cell's snapshot store; mmap cells spool into a per-run
    temporary directory that the stack tears down."""
    from repro.graph.storage import store_from_spec

    if storage == "heap":
        return store_from_spec("heap")
    root = stack.enter_context(
        tempfile.TemporaryDirectory(prefix="repro-matrix-store-"))
    return store_from_spec(f"{storage}:{root}")


def _build_graph(config: Dict, store) -> CSRGraph:
    topology = config["topology"]
    scale = config["scale"]
    seed = config["seed"]
    if topology == "rmat_xl":
        # The xl tier builds *through* the store: the mmap path streams
        # edge chunks to a disk spool, the heap path materializes the
        # full edge list -- the comparison the storage axis exists for.
        return generators.rmat_xl(int(scale), config["edge_factor"],
                                  seed=seed, store=store)
    if topology == "paper":
        graph = generators.paper_graph(str(scale))
    else:
        graph = generators.rmat(int(scale), config["edge_factor"],
                                seed=seed, weighted=True)
    return store.publish(graph)


def _values_crc32(values) -> int:
    """CRC of the final value vector -- the bit-for-bit equality pin
    across the storage axis (part of the canonical payload)."""
    if values is None:
        return 0
    return zlib.crc32(np.ascontiguousarray(values).tobytes())


def _build_batches(config: Dict, graph: CSRGraph) -> List[MutationBatch]:
    return SCENARIOS[config["scenario"]](
        graph, config["num_batches"], config["batch_size"],
        delete_fraction=config["delete_fraction"], seed=config["seed"],
    )


def _wall_summary(per_batch: Sequence[float],
                  setup_seconds: float) -> Dict[str, float]:
    arr = np.asarray(per_batch, dtype=float)
    if arr.size == 0:
        arr = np.zeros(1)
    summary = {
        f"p{q}": round(float(np.percentile(arr, q)), 6)
        for q in WALL_PERCENTILES
    }
    summary.update({
        "mean": round(float(arr.mean()), 6),
        "max": round(float(arr.max()), 6),
        "total": round(float(arr.sum()), 6),
        "setup": round(float(setup_seconds), 6),
    })
    return summary


def _execute_engine_run(config: Dict, graph: CSRGraph,
                        batches: List[MutationBatch]) -> Tuple[Dict, Dict]:
    """One run; returns ``(work, timing)``."""
    num_shards = _parse_shards(str(config["backend"]))
    runner = ENGINES[config["engine"]](
        _algorithm_factory(config["algorithm"]), config["iterations"],
        num_shards=num_shards)
    with scoped_registry() as registry:
        result = run_stream(runner, graph, batches)
        metrics = result.final_metrics
        histogram = registry.histogram(f"{runner.name}.batch_seconds")
        work = {
            "edge_computations": int(metrics.edge_computations),
            # The mutation stream alone (initial run excluded): the
            # quantity the paper's Figure 6 / Table 7 ratios compare.
            "stream_edge_computations": int(
                result.total_edge_computations),
            "vertex_computations": int(metrics.vertex_computations),
            "iterations": int(metrics.iterations),
            "refinement_iterations": int(metrics.refinement_iterations),
            "hybrid_iterations": int(metrics.hybrid_iterations),
            "shard_imbalance": round(
                load_imbalance(metrics.shard_loads), 6),
            "num_shards": num_shards,
            "batches_applied": len(result.batches),
            "values_crc32": _values_crc32(result.final_values),
        }
        if isinstance(config["algorithm"], dict):
            work.update(_tolerance_work(config, graph, batches, runner,
                                        result))
        timing = {
            "wall_seconds": _wall_summary(
                [batch.total_seconds for batch in result.batches],
                result.setup_seconds,
            ),
            "compute_seconds": round(result.total_apply_seconds, 6),
            "batch_seconds_histogram_count": histogram.count,
        }
    return work, timing


def _tolerance_work(config: Dict, graph: CSRGraph,
                    batches: List[MutationBatch], runner,
                    result) -> Dict[str, object]:
    """What a GraphBolt cell's tolerance costs and buys: its stream edge
    work over a GB-Reset restart's at the same τ, its dense refinement
    iterations and dependency bytes, and the relative error of its final
    values against that restart and against a τ = 0 run on the final
    snapshot (a restart's values depend on nothing else)."""
    iterations = config["iterations"]
    restart = run_stream(ENGINES["gbreset"](
        _algorithm_factory(config["algorithm"]), iterations), graph, batches)
    exact = DeltaEngine(_algorithm_factory(config["algorithm"], 0.0)()).run(
        runner.engine.graph, iterations)
    work: Dict[str, object] = {
        "dense_refinement_iterations": int(
            result.final_metrics.dense_refinement_iterations),
        "dependency_bytes": int(runner.engine.history.nbytes),
        "restart_stream_edge_computations": int(
            restart.total_edge_computations),
        "edge_work_vs_restart": round(
            result.total_edge_computations
            / max(restart.total_edge_computations, 1), 6),
    }
    for label, values in (("restart", restart.final_values),
                          ("exact", exact)):
        errors = relative_errors(result.final_values, values)
        work[f"max_rel_error_vs_{label}"] = float(f"{errors.max():.4e}")
        work[f"mean_rel_error_vs_{label}"] = float(f"{errors.mean():.4e}")
    return work


def execute_run(spec: RunSpec) -> Dict:
    """Execute one cell and return its payload entry.

    ``timing.peak_rss_bytes`` records the process-lifetime RSS
    high-water mark after the cell ran.  Being a high-water mark it
    never decreases across cells, so memory comparisons (the xl
    matrix's storage axis) must list the low-memory configuration
    *first* in the axis -- run order is expansion order.  Timing is
    stripped from the canonical payload, so the environment-dependent
    reading never perturbs the determinism pin or the gate baselines.
    """
    config = spec.config
    with contextlib.ExitStack() as stack:
        store = _make_store(str(config["storage"]), stack)
        graph = _build_graph(config, store)
        batches = _build_batches(config, graph)
        work, timing = _execute_engine_run(config, graph, batches)
        work["graph_vertices"] = graph.num_vertices
        work["graph_edges"] = graph.num_edges
        work["mutations"] = sum(len(batch) for batch in batches)
        timing["peak_rss_bytes"] = peak_rss_bytes()
    return {
        "id": spec.run_id,
        "config": dict(config),
        "config_hash": spec.hash,
        "work": work,
        "timing": timing,
    }


def run_matrix(table: RunTable,
               progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Execute a whole run table and assemble its ``BENCH_*`` payload."""
    specs = expand(table)
    runs = []
    for spec in specs:
        if progress is not None:
            progress(spec.run_id)
        runs.append(execute_run(spec))
    headers = ["Run", "EdgeComp", "p50 s", "p99 s", "Total s", "RSS MiB"]
    rows = []
    for run in runs:
        wall = run["timing"]["wall_seconds"]
        rows.append([
            run["id"], run["work"]["edge_computations"],
            wall["p50"], wall["p99"], wall["total"],
            round(run["timing"]["peak_rss_bytes"] / 2 ** 20, 1),
        ])
    matrix_config = {
        "axes": table.axes,
        "fixed": table.fixed,
        "exclude": table.exclude,
        "defaults": DEFAULTS,
        "schema": table.schema,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "area": table.area,
        "matrix": os.path.basename(table.path),
        "title": table.title or f"Experiment matrix '{table.area}'",
        "config_hash": config_hash(matrix_config),
        "seed": table.fixed.get("seed", DEFAULTS["seed"]),
        "gate": table.gate,
        "num_runs": len(runs),
        "runs": runs,
        "headers": headers,
        "rows": rows,
    }


def payload_filename(area: str) -> str:
    return f"BENCH_{area}.json"


# ----------------------------------------------------------------------
# Schema validation for emitted payloads
# ----------------------------------------------------------------------
_RUN_REQUIRED = ("id", "config", "config_hash", "work", "timing")
_TOP_REQUIRED = ("schema_version", "area", "matrix", "title",
                 "config_hash", "seed", "num_runs", "runs", "headers",
                 "rows")


def validate_payload(payload: Dict) -> None:
    """Check a ``BENCH_*`` payload against the versioned schema.

    Raises :class:`MatrixError` naming the first offending field.
    """
    if not isinstance(payload, dict):
        raise MatrixError("payload must be a mapping")
    for key in _TOP_REQUIRED:
        if key not in payload:
            raise MatrixError(f"payload missing key {key!r}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise MatrixError(
            f"payload schema_version {payload['schema_version']!r} != "
            f"{SCHEMA_VERSION}"
        )
    if not isinstance(payload["runs"], list) or not payload["runs"]:
        raise MatrixError("payload 'runs' must be a non-empty list")
    if payload["num_runs"] != len(payload["runs"]):
        raise MatrixError("payload num_runs disagrees with len(runs)")
    seen = set()
    for index, run in enumerate(payload["runs"]):
        for key in _RUN_REQUIRED:
            if key not in run:
                raise MatrixError(f"runs[{index}] missing key {key!r}")
        if run["id"] in seen:
            raise MatrixError(f"duplicate run id {run['id']!r}")
        seen.add(run["id"])
        if run["config_hash"] != config_hash(run["config"]):
            raise MatrixError(
                f"runs[{index}] config_hash does not match its config")
        wall = run["timing"].get("wall_seconds")
        if not isinstance(wall, dict):
            raise MatrixError(
                f"runs[{index}] timing.wall_seconds missing")
        for quantile in [f"p{q}" for q in WALL_PERCENTILES] + [
                "mean", "max", "total"]:
            if not isinstance(wall.get(quantile), (int, float)):
                raise MatrixError(
                    f"runs[{index}] wall_seconds.{quantile} must be a "
                    f"number"
                )
        for key, value in run["work"].items():
            if not isinstance(value, (int, float, str)):
                raise MatrixError(
                    f"runs[{index}] work.{key} must be scalar, "
                    f"got {type(value).__name__}"
                )
    # The canonical form must round-trip: json-serialisable throughout.
    canonical_payload(payload)
