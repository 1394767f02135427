"""Tests for the command-line interface."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.registry import REGISTRY
from repro.bench.harness import TABLE5_ENGINES
from repro.bench.matrix import expand, load_table, matrices_dir
from repro.cli import main, parse_graph
from repro.obs import read_journal
from repro.obs.render import build_tree
from tests.conftest import edge_set, flip_byte_at, journal_records


class TestParseGraph:
    def test_rmat(self):
        graph = parse_graph("rmat:8:4")
        assert graph.num_vertices == 256

    def test_rmat_defaults(self):
        assert parse_graph("rmat").num_vertices == 1024

    def test_watts_strogatz(self):
        graph = parse_graph("ws:100:2")
        assert graph.num_vertices == 100

    def test_erdos_renyi(self):
        graph = parse_graph("er:50:200")
        assert graph.num_edges == 200

    def test_er_needs_both_args(self):
        with pytest.raises(ValueError):
            parse_graph("er:50")

    def test_paper(self):
        assert parse_graph("paper:WK").num_vertices == 2048

    def test_file_roundtrip(self, tmp_path):
        from repro.graph import io
        from repro.graph.generators import rmat

        graph = rmat(scale=6, edge_factor=4, seed=1)
        path = str(tmp_path / "g.npz")
        io.save_npz(graph, path)
        loaded = parse_graph(f"file:{path}")
        assert edge_set(loaded) == edge_set(graph)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            parse_graph("quantum:3")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--graph", "rmat:7:4"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "128" in out

    @pytest.mark.parametrize("engine", TABLE5_ENGINES)
    def test_run_engines(self, engine, capsys):
        code = main([
            "run", "--engine", engine, "--graph", "rmat:7:4",
            "--batches", "2", "--batch-size", "10", "--iterations", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "edge_computations" in out

    @pytest.mark.parametrize("engine", ["naive", "kickstarter",
                                        "dataflow"])
    def test_run_rejects_oracle_only_engines(self, engine, capsys):
        """The registry knows six engines; only the Table-5 three run
        an arbitrary algorithm, so only they are CLI choices."""
        with pytest.raises(SystemExit):
            main(["run", "--engine", engine, "--graph", "rmat:6:4"])
        assert "invalid choice" in capsys.readouterr().err

    def test_run_with_validation(self, capsys):
        code = main([
            "run", "--algorithm", "sssp", "--graph", "rmat:7:4",
            "--batches", "2", "--batch-size", "10", "--validate",
        ])
        assert code == 0
        assert "max_error" in capsys.readouterr().out

    def test_run_writes_output(self, tmp_path, capsys):
        out_path = str(tmp_path / "values.npz")
        main([
            "run", "--graph", "rmat:7:4", "--batches", "1",
            "--batch-size", "5", "--iterations", "3",
            "--output", out_path,
        ])
        with np.load(out_path) as data:
            assert data["values"].shape == (128,)

    def test_every_registered_algorithm_runs(self, capsys):
        for name in REGISTRY:
            graph = "rmat:6:4"
            code = main([
                "run", "--algorithm", name, "--graph", graph,
                "--batches", "1", "--batch-size", "5",
                "--iterations", "3",
            ])
            assert code == 0, name

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_positional_graph_spec_overrides_flag(self, capsys):
        code = main([
            "run", "rmat:7:4", "--batches", "1", "--batch-size", "5",
            "--iterations", "3",
        ])
        assert code == 0
        assert "rmat:7:4" in capsys.readouterr().out


def bundled_matrices():
    """Every name ``repro experiment --list`` prints."""
    import os

    return sorted(name[:-len(".yaml")]
                  for name in os.listdir(matrices_dir())
                  if name.endswith(".yaml"))


class TestExperimentCommand:
    """Every bundled run table is one dialect with one write path.

    Regression: ``--matrix table5`` used to take a ``driver:`` branch
    that ignored ``--out-dir`` / ``--gate`` / ``--update-baseline`` and
    dropped an unschema'd ``BENCH_table5.json`` into
    ``benchmarks/results/``.  The grids themselves are not run here:
    ``execute_run`` is replaced by a stub cell.
    """

    @pytest.fixture
    def stub_runs(self, monkeypatch, tmp_path):
        from repro.bench import matrix

        def execute_run(spec):
            wall = dict.fromkeys(
                ("p50", "p90", "p99", "mean", "max", "total"), 0.001)
            work = {"edge_computations": 7, "stream_edge_computations": 3,
                    "vertex_computations": 5}
            if spec.config["backend"] != "serial":
                # A sharded cell's columns (what reduce_table6 reads).
                work.update(shard_loads=[2, 1], iterations=1,
                            refinement_iterations=0, num_shards=2)
            if isinstance(spec.config["algorithm"], dict):
                # A tolerance cell's columns (matrix._tolerance_work).
                work.update(dict.fromkeys((
                    "edge_work_vs_restart", "dense_refinement_iterations",
                    "max_rel_error_vs_exact", "max_rel_error_vs_restart"),
                    0))
            return {
                "id": spec.run_id,
                "config": dict(spec.config), "config_hash": spec.hash,
                "work": work,
                "timing": {"wall_seconds": wall, "peak_rss_bytes": 0,
                           "compute_seconds": 0.001},
            }

        monkeypatch.setattr(matrix, "execute_run", execute_run)
        default_results = tmp_path / "default-results"
        default_results.mkdir()
        monkeypatch.setattr("repro.bench.reporting.results_dir",
                            lambda: str(default_results))
        return default_results

    def test_list_prints_every_table(self, capsys):
        assert main(["experiment", "--list"]) == 0
        assert capsys.readouterr().out.split() == bundled_matrices()

    @pytest.mark.parametrize("name", bundled_matrices())
    def test_table_loads_expands_and_honours_out_dir(
            self, name, stub_runs, tmp_path, capsys):
        table = load_table(name)
        specs = expand(table)
        out_dir = tmp_path / "out"
        baselines = tmp_path / "baselines"
        common = ["experiment", "--matrix", name,
                  "--out-dir", str(out_dir),
                  "--baseline-dir", str(baselines)]

        assert main(common + ["--update-baseline"]) == 0
        written = out_dir / f"BENCH_{table.area}.json"
        payload = json.loads(written.read_text())
        assert payload["num_runs"] == len(specs)
        assert (baselines / written.name).exists()
        assert not list(stub_runs.iterdir())

        assert main(common + ["--gate", "enforce"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_enforce_fails_on_planted_work_regression(
            self, stub_runs, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        common = ["experiment", "--matrix", "table8",
                  "--out-dir", str(tmp_path / "out"),
                  "--baseline-dir", str(baselines)]
        assert main(common + ["--update-baseline"]) == 0
        path = baselines / "BENCH_table8.json"
        baseline = json.loads(path.read_text())
        baseline["runs"][0]["work"]["stream_edge_computations"] = 1
        path.write_text(json.dumps(baseline))
        assert main(common + ["--gate", "enforce"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_bench_is_not_a_verb(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "figure4"])
        assert "invalid choice" in capsys.readouterr().err

    def test_snapshot_store_is_not_an_experiment_option(self, capsys):
        # A cell's store is its matrix's ``storage`` axis, so the
        # command takes no store option.
        with pytest.raises(SystemExit) as exited:
            main(["experiment", "--matrix", "smoke",
                  "--snapshot-store", "mmap"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestObservabilityCommands:
    def test_run_trace_out_journals_span_tree(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        batches = 3
        code = main([
            "run", "rmat:7:4", "--algorithm", "pagerank",
            "--batches", str(batches), "--batch-size", "10",
            "--iterations", "4", "--trace-out", path,
        ])
        assert code == 0
        # Every line parses; the stream mixes run/batch/span records.
        records = read_journal(path)
        kinds = {record["type"] for record in records}
        assert {"run", "batch", "span"} <= kinds
        batch_records = journal_records(path, "batch")
        assert [r["index"] for r in batch_records] == list(range(batches))
        # The span tree covers every batch with refine+forward phases.
        roots = build_tree(journal_records(path, "span"))
        batch_roots = [r for r in roots if r["name"] == "batch"]
        assert len(batch_roots) == batches
        for root in batch_roots:
            phases = {child["name"] for child in root["children"]}
            assert {"refine", "forward"} <= phases

    def test_serve_trace_out_journals_spans_and_exemplars(self, tmp_path,
                                                          capsys):
        spans = str(tmp_path / "spans.jsonl")
        events = str(tmp_path / "events.jsonl")
        batches = 6
        assert main([
            "serve", "rmat:7:4", "--batches", str(batches),
            "--batch-size", "10", "--iterations", "4", "--query-every",
            "2", "--wide-events", events, "--trace-out", spans]) == 0
        span_records = journal_records(spans, "span")
        assert sum(r["name"] == "batch" for r in span_records) == batches
        ids = {r["id"] for r in span_records}
        served = [r for r in journal_records(events, "wide")
                  if r["kind"] == "batch"]
        assert len(served) == batches
        assert all(r["exemplar_span"] in ids for r in served)

    def test_run_json_emits_parseable_lines(self, capsys):
        code = main([
            "run", "--graph", "rmat:7:4", "--batches", "2",
            "--batch-size", "10", "--iterations", "4", "--json",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "run"
        assert records[0]["engine"] == "graphbolt"
        batch_records = [r for r in records if r["type"] == "batch"]
        assert [r["index"] for r in batch_records] == [0, 1]
        assert all("edge_computations" in r for r in batch_records)

    def test_run_json_with_validate_includes_error(self, capsys):
        code = main([
            "run", "--graph", "rmat:7:4", "--batches", "1",
            "--batch-size", "5", "--iterations", "4", "--json",
            "--validate",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        batch = [json.loads(l) for l in lines][-1]
        assert batch["max_error"] < 1e-6

    def test_trace_renders_phase_tree(self, capsys):
        code = main([
            "trace", "rmat:7:4", "--batches", "2", "--batch-size", "10",
            "--iterations", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch" in out
        assert "refine" in out
        assert "forward" in out
        assert "%" in out and "ms" in out

    def test_trace_with_journal(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        code = main([
            "trace", "rmat:7:4", "--batches", "1", "--batch-size", "5",
            "--iterations", "3", "--trace-out", path,
        ])
        assert code == 0
        assert journal_records(path, "span")

    def test_fuzz_trace_out_attaches_repro_dump(self, tmp_path, capsys):
        path = str(tmp_path / "fuzz.jsonl")
        code = main([
            "fuzz", "--plant-bug", "--workloads", "4", "--seed", "0",
            "--max-vertices", "24", "--max-batches", "3",
            "--trace-out", path,
        ])
        assert code == 0  # planted bug was caught
        repros = journal_records(path, "repro")
        assert repros and "divergences" in repros[0]
        assert journal_records(path, "span")


class TestFuzzSmoke:
    """The cross-engine differential fuzz campaign at a fixed count.

    25 workloads is the whole ``--seed 0`` campaign a ``--budget 30s``
    run completes (it takes about a second), so a count runs the same
    workloads without a clock in the verdict."""

    def test_seeded_campaign_finds_no_divergence(self, capsys):
        assert main(["fuzz", "--workloads", "25", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 25 workload(s), 0 failure(s)" in out

    def test_planted_bug_is_caught(self, capsys):
        assert main(["fuzz", "--plant-bug", "--workloads", "8",
                     "--seed", "0", "--no-shrink"]) == 0


class TestWorkGates:
    """The smoke matrix and the paper's Table 8 (Hi/Lo) and Figure 7
    (batch-size sweep) grids, gated against their committed baselines
    in ``benchmarks/baselines/``: the gate compares the deterministic
    work counters only, so any change that adds work or moves an
    iteration mode fails here.  table5/table7 (225/30 runs) are too long
    for tier-1; run them by hand with ``--gate enforce``."""

    @pytest.mark.parametrize("name", ["smoke", "table8", "figure7"])
    def test_matrix_passes_enforce(self, name, tmp_path, capsys):
        assert main(["experiment", "--matrix", name, "--gate", "enforce",
                     "--out-dir", str(tmp_path)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out


class TestCrashSweeps:
    """The kill-and-recover table as CI ran it in its own job: each
    sweep through the CLI at ``--seed 0`` (every row recovers bit for
    bit and its planted failure fired; ``storage`` is
    ``TestRecoveryCommands.test_storage_sweep_smoke``), and the 12-round
    seeded campaign.  The plant-a-fault self-test is
    ``TestRecoveryCommands.test_plant_fault_self_test``; the rows one by
    one at the seeds of the five hand-rolled sweeps are
    ``tests/recovery/test_crash_equivalence.py``."""

    @pytest.mark.parametrize(
        "sweep", ["durable", "resilient", "replicated", "chaos"])
    def test_sweep_recovers_every_row(self, sweep, tmp_path, capsys):
        assert main(["fuzz", "--crash", "--sweep", sweep, "--seed", "0",
                     "--artifacts-dir", str(tmp_path)]) == 0
        assert "MISMATCH" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_seeded_campaign_recovers_every_round(self, tmp_path, capsys):
        assert main(["fuzz", "--crash", "--rounds", "12", "--seed", "0",
                     "--checkpoint-every", "2",
                     "--artifacts-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "crash fuzz: 12 round(s)" in out and "0 mismatch(es)" in out
        assert list(tmp_path.iterdir()) == []


class TestRecoveryCommands:
    SERVE = ["serve", "rmat:6:4", "--batches", "3", "--batch-size", "8",
             "--iterations", "3"]

    def test_serve_ephemeral(self, capsys):
        assert main(self.SERVE) == 0
        out = capsys.readouterr().out
        assert "serve pagerank" in out and "durable" not in out
        # Every batch is submitted through the admission queue.  With
        # no WAL and no latency SLO the breaker cannot trip and
        # ``block`` applies on submit, so this is the table a plain
        # ``server.ingest`` loop prints, wall-clock column dropped.
        title, *rows = [line.split() for line in out.splitlines()]
        assert title == ["serve", "pagerank", "on", "rmat:6:4"]
        assert [fields[:2] for fields in rows] == [
            ["batch", "mutations"], ["-" * 25],
            ["0", "8"], ["1", "8"], ["2", "8"],
        ]

    def test_serve_recover_roundtrip(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(self.SERVE + ["--wal", state,
                                  "--checkpoint-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "WAL-logged" in out and "checkpoint generation" in out
        assert main(["recover", state]) == 0
        out = capsys.readouterr().out
        assert "3 batch(es) replayed into a live server" in out

    def test_recover_verify_is_bit_for_bit(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(self.SERVE + ["--wal", state,
                                  "--checkpoint-every", "2"]) == 0
        capsys.readouterr()
        assert main(["recover", state, "--verify"]) == 0
        assert "bit-for-bit" in capsys.readouterr().out

    def test_recover_without_manifest_fails_loudly(self, tmp_path):
        from repro.recovery import RecoveryError

        with pytest.raises(RecoveryError, match="manifest"):
            main(["recover", str(tmp_path / "nothing-here")])

    def test_recover_unregistered_algorithm_fails_cleanly(self, tmp_path,
                                                          capsys):
        state = tmp_path / "state"
        assert main(self.SERVE + ["--wal", str(state),
                                  "--checkpoint-every", "2"]) == 0
        capsys.readouterr()
        manifest_path = state / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["algorithm"] = "page-rnak"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["recover", str(state)]) == 2
        out = capsys.readouterr().out
        assert str(state) in out and "'page-rnak'" in out
        assert str(sorted(REGISTRY)) in out

    def test_crash_fuzz_clean_campaign(self, capsys):
        code = main(["fuzz", "--crash", "--rounds", "2", "--seed", "0",
                     "--max-vertices", "24", "--max-batches", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "crash fuzz" in out and "0 mismatch(es)" in out

    def test_plant_fault_self_test(self, capsys):
        assert main(["fuzz", "--crash", "--plant-fault"]) == 0
        assert "failpoints are live" in capsys.readouterr().out

    def test_plant_fault_requires_crash(self, capsys):
        assert main(["fuzz", "--plant-fault"]) == 2

    def test_sweep_requires_crash(self, capsys):
        assert main(["fuzz", "--sweep", "replicated"]) == 2
        assert "--crash" in capsys.readouterr().out

    def test_storage_sweep_smoke(self, tmp_path, capsys):
        code = main(["fuzz", "--crash", "--sweep", "storage",
                     "--artifacts-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("crash@storage.segment_write") == 6
        assert "MISMATCH" not in out

    def test_failing_sweep_row_exits_nonzero_and_keeps_a_repro(
            self, tmp_path, capsys, monkeypatch):
        from repro.testing import crash

        truth = crash._uninterrupted_values
        monkeypatch.setattr(crash, "_uninterrupted_values",
                            lambda workload: truth(workload) + 1e-9)
        code = main(["fuzz", "--crash", "--sweep", "resilient",
                     "--artifacts-dir", str(tmp_path)])
        assert code == 1
        assert "MISMATCH (server diverged" in capsys.readouterr().out
        repro = (tmp_path / "breaker.probe.repro.txt").read_text()
        assert "repro fuzz --crash --sweep resilient --seed 0" in repro

    @pytest.mark.parametrize("flag", [
        "--replicated", "--storage", "--chaos", "--chaos-rate=0.1",
        "--chaos-seeds=5",
    ])
    def test_flag_per_sweep_options_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--crash", flag])


class TestScrubCommand:
    def test_planted_bit_rot_is_detected_and_repaired_byte_for_byte(
            self, tmp_path, capsys):
        """One flipped payload byte in a published store: ``scrub``
        exits non-zero, ``--repair`` restores the file byte for byte,
        and a re-scan is clean."""
        import hashlib

        from repro.graph.generators import rmat
        from repro.graph.storage import MmapStore

        state = tmp_path / "state"
        store_root = state / "store"
        MmapStore(str(store_root)).publish(rmat(6, 4, seed=3,
                                                weighted=True))
        path = store_root / "snap-g000000-out_targets.seg"
        oracle = path.read_bytes()
        path.write_bytes(flip_byte_at(oracle, 64 + len(oracle) // 2))
        scrub = ["scrub", str(state), "--store-root", str(store_root)]

        assert main(scrub) != 0
        assert main(scrub + ["--repair"]) == 0
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == hashlib.sha256(oracle).hexdigest())
        capsys.readouterr()
        assert main(scrub) == 0
        assert "UNREPAIRED" not in capsys.readouterr().out


class TestResilientServe:
    SERVE = ["serve", "rmat:6:4", "--batches", "6", "--batch-size", "8",
             "--iterations", "3"]

    def test_serve_status_prints_health(self, capsys):
        code = main(self.SERVE + ["--admission", "coalesce",
                                  "--queue-capacity", "2",
                                  "--burst", "3", "--query-every", "2",
                                  "--status"])
        assert code == 0
        out = capsys.readouterr().out
        health_line = next(line for line in out.splitlines()
                           if line.startswith("health: "))
        health = json.loads(health_line[len("health: "):])
        assert health["queue_depth"] == 0
        assert health["breaker_state"] == "closed"
        assert health["submitted"] == 6
        assert health["coalesced"] > 0

    def test_poison_requires_wal(self, capsys):
        assert main(self.SERVE + ["--poison-every", "2"]) == 2
        assert "--wal" in capsys.readouterr().out

    def test_overload_soak_roundtrip(self, tmp_path, capsys):
        from repro.testing.faults import scoped_failpoints

        state = str(tmp_path / "state")
        journal_path = str(tmp_path / "health.jsonl")
        with scoped_failpoints():
            code = main(self.SERVE + [
                "--batches", "12", "--wal", state,
                "--checkpoint-every", "4",
                "--admission", "shed-oldest", "--queue-capacity", "4",
                "--burst", "2", "--poison-every", "3",
                "--query-every", "2", "--deadline", "0.5",
                "--breaker-quarantine-threshold", "2",
                "--breaker-cooldown", "2",
                "--health-journal", journal_path, "--status",
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SOAK FAIL" not in out
        with open(journal_path) as handle:
            records = [json.loads(line) for line in handle]
        assert records and all(r["event"] == "health" for r in records)
        final = records[-1]
        assert final["queue_depth"] == 0
        # Bounded damage: no more quarantines than planted poisons.
        assert final["quarantine_count"] <= 4
        assert final["queries_served"] >= 6

    def test_recover_verify_skips_quarantined_batches(self, tmp_path,
                                                      capsys):
        from repro.testing.faults import scoped_failpoints

        state = str(tmp_path / "state")
        with scoped_failpoints():
            code = main(self.SERVE + [
                "--batches", "8", "--wal", state,
                "--checkpoint-every", "3", "--poison-every", "3",
            ])
        assert code == 0
        capsys.readouterr()
        # The WAL's records minus the skip-marked seqs reconstruct the
        # live stream bit-for-bit.
        assert main(["recover", state, "--verify"]) == 0
        assert "bit-for-bit" in capsys.readouterr().out

    @pytest.mark.parametrize("serving", [
        ["--burst", "2"],
        # docs/operations.md, "The overload soak".
        ["--admission", "shed-oldest", "--queue-capacity", "4", "--burst",
         "2", "--poison-every", "3", "--query-every", "2", "--deadline",
         "0.5", "--status"],
        ["--admission", "coalesce", "--queue-capacity", "3", "--burst",
         "4"],
    ], ids=["burst", "overload-soak", "coalesce"])
    def test_recover_verify_after_asynchronous_serving(self, serving,
                                                       tmp_path, capsys):
        """A queued batch is drawn from a graph that lags the queue and
        a coalesced one is logged under a new seq: only the WAL's own
        records reproduce what the live loop applied."""
        from repro.testing.faults import scoped_failpoints

        state = str(tmp_path / "state")
        with scoped_failpoints():
            assert main(["serve", "rmat:8", "--wal", state, *serving]) == 0
        capsys.readouterr()
        assert main(["recover", state, "--verify"]) == 0
        assert "bit-for-bit" in capsys.readouterr().out

    def test_recover_verify_needs_the_whole_wal(self, tmp_path, capsys):
        """Once a covered segment is gone there is no schedule to replay
        from the initial graph: verify says so and exits 2."""
        state = tmp_path / "state"
        assert main(self.SERVE + ["--wal", str(state),
                                  "--checkpoint-every", "2"]) == 0
        capsys.readouterr()
        # What ``WriteAheadLog.gc`` leaves: the log now starts at seq 2.
        (segment,) = (state / "wal").iterdir()
        records = segment.read_text().splitlines(keepends=True)
        segment.unlink()
        (state / "wal" / ("2".zfill(len(segment.stem)) + segment.suffix)
         ).write_text("".join(records[2:]))
        assert main(["recover", str(state), "--verify"]) == 2
        assert "no longer starts at seq 0" in capsys.readouterr().out


class TestSLOAndDashCommands:
    SERVE = ["serve", "rmat:6:4", "--batches", "14", "--batch-size",
             "8", "--iterations", "3"]

    def test_planted_fault_fires_pinned_alert_and_replays(
            self, tmp_path, capsys):
        """The acceptance pin, end to end: plant at 10, page at 11,
        and the same journal replays the violation through dash."""
        journal = str(tmp_path / "wide.jsonl")
        code = main(self.SERVE + ["--slo", "soak", "--wide-events",
                                  journal, "--plant-latency", "10:9.9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slo: 1 alert(s) fired" in out
        assert ("batch 11: soak-ingest-latency "
                "fast=5.0x slow=2.5x") in out
        assert "[runbook: overload-and-degradation]" in out
        alerts = journal_records(journal, "alert")
        assert [(a["slo"], a["state"], a["index"]) for a in alerts] == [
            ("soak-ingest-latency", "firing", 11)]
        assert len(journal_records(journal, "wide")) == 14
        # Replay: the dashboard sees the violation and the seq check
        # is clean.
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "soak", "--expect-alert",
                     "soak-ingest-latency"]) == 0
        out = capsys.readouterr().out
        assert "FIRING" in out
        assert "Sequence check: ok" in out
        # The very same journal asserted clean must fail.
        assert main(["dash", "--once", "--from-journal", journal,
                     "--expect-clean"]) == 1
        assert "EXPECT FAIL" in capsys.readouterr().out

    def test_clean_run_fires_nothing(self, tmp_path, capsys):
        journal = str(tmp_path / "wide.jsonl")
        assert main(self.SERVE + ["--slo", "soak", "--wide-events",
                                  journal]) == 0
        assert "slo: 0 alert(s) fired" in capsys.readouterr().out
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "soak", "--expect-clean"]) == 0
        capsys.readouterr()
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "soak", "--expect-alert", "any"]) == 1
        assert "EXPECT FAIL" in capsys.readouterr().out

    def test_shared_wide_and_health_journal(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main(self.SERVE + ["--wide-events", path,
                                  "--health-journal", path]) == 0
        capsys.readouterr()
        records = read_journal(path)
        kinds = {record["type"] for record in records}
        assert {"wide", "health"} <= kinds
        assert main(["dash", "--once", "--from-journal", path]) == 0
        out = capsys.readouterr().out
        assert "Sequence check: ok" in out
        assert "breaker=closed" in out

    def test_dash_missing_journal(self, tmp_path, capsys):
        code = main(["dash", "--once", "--from-journal",
                     str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "journal not found" in capsys.readouterr().out

    def test_metrics_out_renders_prometheus_text(self, tmp_path,
                                                 capsys):
        metrics = str(tmp_path / "metrics.prom")
        assert main(self.SERVE + ["--slo", "soak", "--metrics-out",
                                  metrics]) == 0
        assert f"metrics -> {metrics}" in capsys.readouterr().out
        with open(metrics) as handle:
            text = handle.read()
        assert "repro_slo_soak_ingest_latency_fast_burn" in text
        assert "repro_slo_alerts_fired" in text

    def test_serve_metrics_endpoint_announced(self, capsys):
        assert main(self.SERVE[:2] + ["--batches", "2", "--batch-size",
                                      "4", "--iterations", "2",
                                      "--serve-metrics", "0"]) == 0
        assert "metrics endpoint: http://" in capsys.readouterr().out

    def test_slo_lint_bundled_files_pass(self, capsys):
        assert main(["slo-lint"]) == 0
        out = capsys.readouterr().out
        assert "soak.yaml: ok" in out
        assert "serving.yaml: ok" in out
        assert "0 with problems" in out

    def test_slo_lint_flags_broken_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema: 1\nslos: []\n")
        assert main(["slo-lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "bad.yaml: FAIL" in out
        assert "1 with problems" in out

    def test_slo_lint_empty_dir_fails(self, tmp_path, capsys):
        assert main(["slo-lint", str(tmp_path)]) == 1

    def test_trace_warns_on_ring_overflow(self, monkeypatch, capsys):
        from repro.obs.trace import Tracer as RealTracer

        monkeypatch.setattr(
            "repro.cli.Tracer",
            lambda sink=None: RealTracer(capacity=2, sink=sink))
        assert main(["trace", "rmat:6:4", "--batches", "2",
                     "--batch-size", "4", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "WARNING: span ring buffer overflowed" in out
        assert "--trace-out" in out

    def test_trace_quiet_without_overflow(self, capsys):
        assert main(["trace", "rmat:6:4", "--batches", "2",
                     "--batch-size", "4", "--iterations", "2"]) == 0
        assert "WARNING" not in capsys.readouterr().out


class TestServeSoaks:
    """The SLO / dashboard smoke and the overload soak at full scale
    (``rmat:8``, batches of 25, the default iteration count, where
    ``TestSLOAndDashCommands`` runs ``rmat:6:4``): every command exits
    0, and the planted violation pages at exactly batch 11.  Linting
    the bundled plans is
    ``TestSLOAndDashCommands.test_slo_lint_bundled_files_pass``."""

    SLO_SERVE = ["serve", "rmat:8", "--batches", "20", "--batch-size",
                 "25", "--seed", "0", "--slo", "soak"]

    def test_planted_violation_pages_at_batch_11(self, tmp_path, capsys):
        """``--plant-latency`` replaces the ingest latency sample from
        batch 10 on; with soak.yaml's windows (fast 4 / slow 8, burn
        5.0x / 2.5x over a 0.1 budget) the page fires at batch 11, and
        the dashboard replay of the journal sees it."""
        journal = str(tmp_path / "slo-violation.jsonl")
        metrics = tmp_path / "slo-metrics.prom"
        assert main(self.SLO_SERVE + [
            "--plant-latency", "10:9.9", "--wide-events", journal,
            "--metrics-out", str(metrics), "--status"]) == 0
        assert ("[page] batch 11: soak-ingest-latency"
                in capsys.readouterr().out)
        alerts = journal_records(journal, "alert")
        assert [(a["slo"], a["state"], a["index"]) for a in alerts] == [
            ("soak-ingest-latency", "firing", 11)]
        assert "repro_slo_alerts_fired" in metrics.read_text()
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "soak", "--expect-alert",
                     "soak-ingest-latency"]) == 0

    def test_clean_soak_fires_nothing(self, tmp_path, capsys):
        journal = str(tmp_path / "slo-clean.jsonl")
        assert main(self.SLO_SERVE + ["--wide-events", journal]) == 0
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "soak", "--expect-clean"]) == 0

    @staticmethod
    def documented_overload_soak() -> list:
        """docs/operations.md's overload soak command, as arguments."""
        text = (Path(__file__).parents[1] / "docs"
                / "operations.md").read_text()
        block = text.split("### The overload soak", 1)[1].split("```")[1]
        return shlex.split(block.replace("\\\n", " "))[1:]  # no "repro"

    @pytest.mark.parametrize("admission",
                             ["block", "shed-oldest", "coalesce"])
    def test_overload_soak(self, admission, tmp_path, capsys,
                           monkeypatch):
        """The documented soak under each admission policy: bursty
        replay with planted poison batches.  The serve exits non-zero
        if a query goes unserved, restores blow the breaker budget, or
        quarantines exceed the planted poisons; its bursts overflow the
        queue (``shed-oldest`` sheds, ``coalesce`` folds), its
        queries read their deadline, and ``recover --verify`` holds."""
        from repro.runtime.deadline import WallClockDeadline
        from repro.testing.faults import scoped_failpoints

        soak = self.documented_overload_soak()
        assert soak[soak.index("--admission") + 1] == "shed-oldest"
        state = str(tmp_path / "soak-state")
        health = tmp_path / f"health-{admission}.jsonl"
        swap = {"state/": state, "health.jsonl": str(health),
                "shed-oldest": admission}
        checks = []
        expired = WallClockDeadline.expired

        def spy(deadline):
            checks.append(deadline)
            return expired(deadline)

        monkeypatch.setattr(WallClockDeadline, "expired", spy)
        with scoped_failpoints():
            assert main([swap.get(arg, arg) for arg in soak]) == 0
        assert "SOAK FAIL" not in capsys.readouterr().out
        assert checks
        final = journal_records(health, "health")[-1]
        assert final["submitted"] == 24
        if admission == "shed-oldest":
            assert final["shed"] >= 1
        if admission == "coalesce":
            assert final["coalesced"] >= 1
        # Checkpoints name WAL positions, so recovery applies no record
        # twice: the recovered state is the WAL's own replay.
        assert main(["recover", state, "--verify"]) == 0
        assert "bit-for-bit equal" in capsys.readouterr().out

    def test_replication_soak(self, tmp_path):
        """The 2-replica soak with a planted replica crash, on the heap
        and on the mmap store: r0 dies before batch 6 and restarts
        before batch 14, so its backlog crosses the replication SLO's
        objective; the dashboard replay requires the replica-staleness
        page to fire and then resolve.  The serve exits non-zero if a
        live replica still lags after the final sync; the offline
        status and a scrub of each mmap replica with its own store
        spool re-check what is on disk."""
        soak = ["serve", "rmat:8", "--batches", "24", "--batch-size", "50",
                "--seed", "0", "--checkpoint-every", "2", "--admission",
                "block", "--replicas", "2", "--kill-replica", "0:6:14",
                "--status"]
        state = str(tmp_path / "repl-state")
        journal = str(tmp_path / "replication-soak.jsonl")
        assert main(soak + ["--wal", state, "--slo", "replication",
                            "--wide-events", journal]) == 0
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "replication",
                     "--expect-alert", "replica-staleness",
                     "--expect-resolved", "replica-staleness"]) == 0
        assert main(["replication-status", state]) == 0
        mmap_state = tmp_path / "repl-mmap-state"
        assert main(soak + [
            "--wal", str(mmap_state), "--snapshot-store",
            f"mmap:{tmp_path / 'repl-mmap-store'}"]) == 0
        assert main(["replication-status", str(mmap_state)]) == 0
        for replica in ("r0", "r1"):
            directory = mmap_state / "replicas" / replica
            assert main(["scrub", str(directory), "--store-root",
                         str(directory / "store")]) == 0


class TestReplicatedServe:
    SERVE = ["serve", "rmat:6:4", "--batches", "6", "--batch-size", "8",
             "--iterations", "3"]

    def test_replicas_require_wal(self, capsys):
        assert main(self.SERVE + ["--replicas", "2"]) == 2
        assert "--wal" in capsys.readouterr().out

    def test_kill_replica_requires_replicas(self, tmp_path, capsys):
        assert main(self.SERVE + ["--wal", str(tmp_path / "s"),
                                  "--kill-replica", "0:2"]) == 2
        assert "--replicas" in capsys.readouterr().out

    def test_bad_kill_spec_rejected(self, tmp_path, capsys):
        assert main(self.SERVE + ["--wal", str(tmp_path / "s"),
                                  "--replicas", "2",
                                  "--kill-replica", "nope"]) == 2
        assert "I:AT" in capsys.readouterr().out

    def test_replicated_soak_with_kill_and_restart(self, tmp_path,
                                                   capsys):
        state = str(tmp_path / "state")
        code = main(self.SERVE + [
            "--wal", state, "--checkpoint-every", "2",
            "--replicas", "2", "--kill-replica", "0:2:4", "--status",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SOAK FAIL" not in out
        summary = next(line for line in out.splitlines()
                       if line.startswith("replication: "))
        assert "epoch=1" in summary
        assert "r0=up" in summary and "r1=up" in summary
        # The same tree inspects cleanly offline.
        assert main(["replication-status", state]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epoch"] == 1
        assert report["writer"]["next_seq"] == 6
        assert {name: info["next_seq"]
                for name, info in report["replicas"].items()} == {
            "r0": 6, "r1": 6}

    def test_replication_status_missing_dir(self, tmp_path, capsys):
        from repro.serving import ReplicationError

        with pytest.raises(ReplicationError, match="not a directory"):
            main(["replication-status", str(tmp_path / "absent")])


class TestDashExpectResolved:
    def journal(self, tmp_path, violate=range(6, 10), total=16):
        path = tmp_path / "wide.jsonl"
        lines = []
        for index in range(total):
            staleness = 5.0 if index in violate else 0.0
            lines.append(json.dumps({
                "type": "wide", "kind": "batch", "seq": index,
                "index": index, "seconds": 0.01,
                "ingest_seconds": 0.01, "breaker_state": "closed",
                "queue_depth": 0,
                "samples": {"replica_staleness": staleness},
            }))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_fired_and_resolved_assertions_pass(self, tmp_path, capsys):
        """A replica-staleness excursion that later clears must satisfy
        both --expect-alert and --expect-resolved on replay."""
        journal = self.journal(tmp_path)
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "replication",
                     "--expect-alert", "replica-staleness",
                     "--expect-resolved", "replica-staleness"]) == 0
        out = capsys.readouterr().out
        assert "EXPECT FAIL" not in out

    def test_unresolved_page_fails_the_expectation(self, tmp_path,
                                                   capsys):
        # The violation runs to the end of the journal: fired but
        # never resolved.
        journal = self.journal(tmp_path, violate=range(6, 16))
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "replication",
                     "--expect-alert", "replica-staleness",
                     "--expect-resolved", "replica-staleness"]) == 1
        assert "EXPECT FAIL" in capsys.readouterr().out

    def test_clean_journal_fails_resolved_expectation(self, tmp_path,
                                                      capsys):
        journal = self.journal(tmp_path, violate=())
        assert main(["dash", "--once", "--from-journal", journal,
                     "--slo", "replication",
                     "--expect-resolved", "any"]) == 1
        assert "EXPECT FAIL" in capsys.readouterr().out
