"""Tests for the declarative experiment matrix (run tables).

Covers the YAML loader/expander validation surface, the schema checks
on emitted ``BENCH_*`` payloads, the determinism pin (same YAML + seed
produces a byte-identical payload modulo timings), the scenario lookup
and the hotspot_storm mutation regime.
"""

import copy
import glob
import json
import os

import pytest

from repro.bench import matrix as matrix_module
from repro.bench.matrix import (
    DEFAULTS,
    MatrixError,
    SCHEMA_VERSION,
    _build_batches,
    canonical_payload,
    expand,
    load_table,
    payload_filename,
    run_matrix,
    validate_payload,
)
from repro.bench.workloads import (
    SCENARIOS,
    hotspot_community,
    hotspot_storm,
    targeted_batch,
    uniform_batch,
)
from repro.graph.generators import rmat
from repro.testing.workloads import BATCH_KINDS


def write_table(tmp_path, text, name="table.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY_TABLE = """
schema: 1
area: tiny
title: "Tiny matrix for tests"
axes:
  engine: [ligra, graphbolt]
  scenario: [uniform, hotspot_storm]
fixed:
  topology: rmat
  scale: 5
  algorithm: PR
  batch_size: 5
  num_batches: 2
  iterations: 4
  seed: 3
exclude:
  - engine: ligra
    scenario: hotspot_storm
gate:
  work_threshold: 0.05
"""

@pytest.fixture(scope="module")
def tiny_payload(tmp_path_factory):
    path = write_table(tmp_path_factory.mktemp("matrix"), TINY_TABLE)
    return run_matrix(load_table(path))


class TestLoader:
    def test_bundled_tables_load(self):
        for name in ("smoke", "core", "sharded"):
            table = load_table(name)
            assert table.area == name
            assert expand(table)

    def test_unknown_axis_key(self, tmp_path):
        # The matrix runs engines only: the serving loop's knobs are not
        # axes (benchmarks/e2e and the crash sweeps measure serving).
        for key in ("flavour", "admission", "faults", "replication", "slo"):
            path = write_table(tmp_path, f"""
schema: 1
area: bad
axes:
  {key}: [none]
""")
            with pytest.raises(MatrixError, match="unknown axes key"):
                load_table(path)

    @pytest.mark.parametrize("key, values, match", [
        ("engine", "[turbopascal]", "engine"),
        # An unknown name after a valid one used to load, run the PR
        # cell, then die with a KeyError.
        ("algorithm", "[PR, PageRnak]",
         r"algorithm 'PageRnak' not in \[.*'LP', 'PR'"),
    ], ids=["engine", "algorithm"])
    def test_bad_vocabulary_value(self, tmp_path, key, values, match):
        path = write_table(tmp_path, f"""
schema: 1
area: bad
axes:
  {key}: {values}
""")
        with pytest.raises(MatrixError, match=match):
            load_table(path)

    def test_unsupported_schema(self, tmp_path):
        path = write_table(tmp_path, "schema: 99\narea: bad\n")
        with pytest.raises(MatrixError, match="schema"):
            load_table(path)

    def test_axis_and_fixed_conflict(self, tmp_path):
        path = write_table(tmp_path, """
schema: 1
area: bad
axes:
  engine: [ligra]
fixed:
  engine: graphbolt
""")
        with pytest.raises(MatrixError, match="both axes and fixed"):
            load_table(path)

    def test_missing_table(self):
        with pytest.raises(MatrixError, match="not found"):
            load_table("no_such_matrix")


class TestExpansion:
    def test_exclude_and_defaults(self, tmp_path):
        path = write_table(tmp_path, TINY_TABLE)
        specs = expand(load_table(path))
        # 2 engines x 2 scenarios minus the excluded ligra/hotspot cell.
        assert [spec.run_id for spec in specs] == [
            "ligra/uniform",
            "graphbolt/uniform",
            "graphbolt/hotspot_storm",
        ]
        for spec in specs:
            # Unlisted knobs fall back to the documented defaults.
            assert spec.config["delete_fraction"] == (
                DEFAULTS["delete_fraction"])
            assert spec.config["scale"] == 5

    def test_run_ids_use_axis_order(self):
        # 2 engines x 2 scenarios, engine before scenario.
        specs = expand(load_table("smoke"))
        assert [spec.run_id for spec in specs] == [
            f"rmat/6/PR/{engine}/{scenario}"
            for engine in ("ligra", "graphbolt")
            for scenario in ("uniform", "hotspot_storm")]


class TestPayloadSchema:
    def test_valid_payload(self, tiny_payload):
        validate_payload(tiny_payload)
        assert tiny_payload["schema_version"] == SCHEMA_VERSION
        assert tiny_payload["num_runs"] == 3
        assert payload_filename(tiny_payload["area"]) == "BENCH_tiny.json"

    @pytest.mark.parametrize("breaker, match", [
        (lambda p: p.pop("runs"), "missing"),
        (lambda p: p.update(schema_version=99), "schema_version"),
        (lambda p: p.update(num_runs=7), "num_runs"),
        (lambda p: p["runs"][0].update(config_hash="0" * 16),
         "config_hash"),
        (lambda p: p["runs"][0]["timing"]["wall_seconds"].pop("p99"),
         "p99"),
    ])
    def test_broken_payloads_rejected(self, tiny_payload, breaker, match):
        broken = copy.deepcopy(tiny_payload)
        breaker(broken)
        with pytest.raises(MatrixError, match=match):
            validate_payload(broken)


class TestDeterminismPin:
    def test_engine_matrix_byte_identical_modulo_timings(self, tmp_path):
        path = write_table(tmp_path, TINY_TABLE)
        table = load_table(path)
        first = run_matrix(table)
        second = run_matrix(table)
        assert canonical_payload(first) == canonical_payload(second)

    def test_canonical_payload_strips_only_timings(self, tiny_payload):
        noisy = copy.deepcopy(tiny_payload)
        noisy["runs"][0]["timing"]["wall_seconds"]["total"] = 123.456
        assert canonical_payload(noisy) == canonical_payload(tiny_payload)
        changed = copy.deepcopy(tiny_payload)
        changed["runs"][0]["work"]["edge_computations"] = 10 ** 9
        assert canonical_payload(changed) != canonical_payload(
            tiny_payload)


TOLERANCE_TABLE = """
schema: 1
area: tinytau
axes:
  algorithm:
    - {name: BP, tolerance: 1.0e-12}
    - {name: BP, tolerance: 1.0e-2}
  batch_size: [5, 40]
fixed:
  topology: rmat
  scale: 6
  edge_factor: 8
  engine: graphbolt
  num_batches: 2
  iterations: 5
  seed: 3
"""


class TestToleranceAxis:
    """``algorithm:`` also takes ``{name, tolerance}``; a bare name is
    the same config, hash and run id as before."""

    def test_bare_names_keep_every_committed_hash(self):
        # Every committed baseline: the gate skips a cell whose hash
        # moved, so a stale hash would silently gate nothing.
        from repro.bench.gate import baselines_dir

        paths = sorted(glob.glob(
            os.path.join(baselines_dir(), "BENCH_*.json")))
        assert paths
        for path in paths:
            with open(path) as handle:
                baseline = json.load(handle)
            area = baseline["area"]
            expanded = {spec.run_id: spec.hash
                        for spec in expand(load_table(area))}
            assert expanded == {run["id"]: run["config_hash"]
                                for run in baseline["runs"]}, area

    def test_mapping_is_its_own_config(self, tmp_path):
        specs = expand(load_table(write_table(tmp_path, TOLERANCE_TABLE)))
        assert [spec.run_id for spec in specs] == [
            "BP@1e-12/5", "BP@1e-12/40", "BP@1e-02/5", "BP@1e-02/40"]
        assert specs[0].config["algorithm"] == {"name": "BP",
                                                "tolerance": 1e-12}
        assert len({spec.hash for spec in specs}) == 4

    @pytest.mark.parametrize("value, match", [
        ("{name: PR, tolerance: 1e-3}", "must be"),   # YAML 1.1 string
        ("{name: PR, tolerance: -1.0}", "must be"),
        ("{name: PR, tolerance: 0.1, k: 2}", "must be"),
        ("{name: PageRnak, tolerance: 0.1}", "not in"),
    ])
    def test_bad_mappings_rejected(self, tmp_path, value, match):
        path = write_table(tmp_path, f"""
schema: 1
area: bad
axes:
  algorithm: [{value}]
""")
        with pytest.raises(MatrixError, match=match):
            load_table(path)

    def test_mapping_needs_graphbolt_in_engine_mode(self, tmp_path):
        path = write_table(tmp_path, """
schema: 1
area: bad
axes:
  engine: [ligra]
fixed:
  algorithm: {name: PR, tolerance: 0.001}
""")
        with pytest.raises(MatrixError, match="tolerance cell"):
            load_table(path)

    def test_cells_record_work_and_error_columns(self, tmp_path):
        from repro.bench.experiments import reduce_tolerance

        payload = run_matrix(load_table(
            write_table(tmp_path, TOLERANCE_TABLE)))
        validate_payload(payload)
        work = {run["id"]: run["work"] for run in payload["runs"]}
        tight = work["BP@1e-12/5"]
        # At 1e-12 refinement is exact to rounding: it matches both
        # restarts, and does less edge work than they do.
        assert tight["max_rel_error_vs_exact"] < 1e-9
        assert tight["max_rel_error_vs_restart"] < 1e-9
        assert 0 < tight["edge_work_vs_restart"] < 1
        assert tight["edge_work_vs_restart"] == round(
            tight["stream_edge_computations"]
            / tight["restart_stream_edge_computations"], 6)
        assert tight["dependency_bytes"] > 0
        assert 0 <= tight["dense_refinement_iterations"] <= (
            tight["refinement_iterations"])
        # A loose tau trades error for work.
        loose = work["BP@1e-02/5"]
        assert loose["max_rel_error_vs_exact"] > 1e-9
        assert (loose["stream_edge_computations"]
                < tight["stream_edge_computations"])
        reduced = reduce_tolerance(payload)
        assert [row[:2] for row in reduced["rows"]] == [
            ["BP", "1e-12"], ["BP", "1e-02"]]
        assert reduced["summary"]["BP"]["tolerance"] == 1e-12


class TestBackendAxis:
    """``backend: sharded:P`` accounts the cell's loads over P owner
    blocks: the shard count must reach the runner the cell builds, or
    the cell records ``num_shards: P`` beside a one-shard vector."""

    TABLE = """
schema: 1
area: tinyshard
axes:
  backend: [serial, "sharded:3"]
fixed:
  topology: rmat
  scale: 5
  algorithm: PR
  engine: graphbolt
  batch_size: 5
  num_batches: 2
  iterations: 4
  seed: 3
"""

    def test_sharded_cell_records_a_multi_shard_vector(self, tmp_path,
                                                       monkeypatch):
        loads = {}
        real = matrix_module.run_stream

        def spy(runner, graph, batches):
            result = real(runner, graph, batches)
            loads[runner.metrics.num_shards] = (
                result.final_metrics.shard_loads)
            return result

        monkeypatch.setattr(matrix_module, "run_stream", spy)
        payload = run_matrix(load_table(write_table(tmp_path, self.TABLE)))
        assert set(loads[1]) == {"0"} and len(loads[3]) > 1
        assert sum(loads[3].values()) == loads[1]["0"]
        serial, sharded = (run["work"] for run in payload["runs"])
        assert (serial["num_shards"], sharded["num_shards"]) == (1, 3)
        assert sharded["shard_imbalance"] > 1.0 == serial["shard_imbalance"]
        # The split is the only thing the axis moves.
        for key in set(serial) - {"num_shards", "shard_imbalance"}:
            assert serial[key] == sharded[key], key


class TestHotspotStorm:
    @pytest.fixture(scope="class")
    def graph(self):
        return rmat(scale=7, edge_factor=6, seed=21, weighted=True)

    def test_all_mutations_inside_community(self, graph):
        lo, hi = hotspot_community(graph.num_vertices, seed=17)
        batches = hotspot_storm(graph, num_batches=4, batch_size=20,
                                seed=17)
        assert len(batches) == 4
        for batch in batches:
            assert batch.num_additions > 0
            for u, v, _ in batch.additions():
                assert lo <= u < hi and lo <= v < hi
            for u, v in batch.deletions():
                assert lo <= u < hi and lo <= v < hi

    def test_deterministic(self, graph):
        def fingerprint(batch):
            return (sorted((u, v) for u, v, _ in batch.additions()),
                    sorted(batch.deletions()))

        first = hotspot_storm(graph, num_batches=3, batch_size=15, seed=5)
        second = hotspot_storm(graph, num_batches=3, batch_size=15, seed=5)
        assert list(map(fingerprint, first)) == list(
            map(fingerprint, second))
        other = hotspot_storm(graph, num_batches=3, batch_size=15, seed=6)
        assert list(map(fingerprint, first)) != list(
            map(fingerprint, other))

    def test_deletions_target_live_edges(self, graph):
        live = set(zip(*[arr.tolist() for arr in graph.all_edges()[:2]]))
        batches = hotspot_storm(graph, num_batches=3, batch_size=30,
                                delete_fraction=0.5, seed=2)
        for batch in batches:
            for u, v in batch.deletions():
                assert (u, v) in live
            for u, v, _ in batch.additions():
                if u != v:
                    live.add((u, v))
            for edge in batch.deletions():
                live.discard(tuple(edge))

    def test_fuzzer_kind_registered(self):
        assert "hotspot_storm" in BATCH_KINDS


class TestScenarioLookup:
    """``_build_batches`` is a lookup in ``SCENARIOS``; every regime
    must draw exactly what a direct generator call draws for the same
    seed (batch ``i`` of the per-batch regimes is seeded ``seed + i``)."""

    EXPECTED = {
        "uniform": lambda graph: [
            uniform_batch(graph, 12, delete_fraction=0.25, seed=40 + i)
            for i in range(3)],
        "hi": lambda graph: [
            targeted_batch(graph, 12, "hi", delete_fraction=0.25,
                           seed=40 + i) for i in range(3)],
        "lo": lambda graph: [
            targeted_batch(graph, 12, "lo", delete_fraction=0.25,
                           seed=40 + i) for i in range(3)],
        "hotspot_storm": lambda graph: hotspot_storm(
            graph, 3, 12, delete_fraction=0.25, seed=40),
    }

    def test_every_scenario_is_pinned(self):
        assert set(SCENARIOS) == set(self.EXPECTED)

    @pytest.mark.parametrize("scenario", sorted(EXPECTED))
    def test_draws_match_direct_calls(self, scenario):
        graph = rmat(scale=7, edge_factor=6, seed=21, weighted=True)
        config = dict(DEFAULTS, scenario=scenario, num_batches=3,
                      batch_size=12, delete_fraction=0.25, seed=40)

        def fingerprint(batch):
            return (list(batch.additions()), list(batch.deletions()))

        assert list(map(fingerprint, _build_batches(config, graph))) == (
            list(map(fingerprint, self.EXPECTED[scenario](graph))))
