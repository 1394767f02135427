"""The acceptance gate: crash anywhere, recover bit-for-bit.

Every row of the kill-and-recover scenario table
(``repro.testing.crash.SWEEPS``) must end its workload with every
surviving node holding exactly the values an uninterrupted server holds
(``tolerance=0.0`` through the PR-1 oracle) -- and its planted failure
must provably have fired.
"""

import json
import os
import shutil
import tempfile
from types import SimpleNamespace

import pytest

from repro.graph.storage import MmapStore
from repro.serving import replication_status
from repro.testing import crash
from repro.testing.crash import (
    FAULT_KINDS,
    NACK_GATES,
    SWEEPS,
    Scenario,
    run_crash_fuzz,
    run_plant_fault,
    run_row,
    run_scenario,
    sweep,
)
from repro.testing.faults import KNOWN_SITES
from repro.testing.workloads import generate_workload

ROWS = [(name, row) for name, rows in SWEEPS.items() for row in rows]


def sweep_seed(name):
    """The seeds the five hand-rolled sweeps ran on: one fixed workload
    for the kill sweeps, chaos seeds 0..4 for the lossy links."""
    return 0 if name == "chaos" else 7


class TestScenarioTable:
    @pytest.mark.parametrize(
        "sweep_name,row", ROWS,
        ids=[f"{name}:{row.name}" for name, row in ROWS],
    )
    def test_row_recovers_bit_for_bit(self, sweep_name, row, tmp_path,
                                      monkeypatch):
        # The generation the newest seal was writing at each restart:
        # a storage kill lands in (or, pinned, just past) that seal.
        sealing, killed = [], []
        seal_segments, debris = MmapStore._seal_segments, crash._debris

        def spy(store, snapshot_id, *args):
            sealing.append(snapshot_id)
            return seal_segments(store, snapshot_id, *args)

        def counted(store_root):
            killed.append(sealing[-1])
            return debris(store_root)

        monkeypatch.setattr(MmapStore, "_seal_segments", spy)
        monkeypatch.setattr(crash, "_debris", counted)
        round_ = run_row(row, sweep_seed(sweep_name), str(tmp_path))
        assert round_.ok, round_.summary()
        assert round_.fired, (
            f"{row.name}: the planted failure never fired, so the "
            f"round proved nothing"
        )
        assert (round_.scenario, round_.arm) == (row.name, row.arm)
        site, kind, _ = row.arm or (None, None, 0)
        if kind == "crash":
            assert round_.crashes >= 1
        if site == "wal.append.torn":
            assert round_.torn_truncated >= 1
        if site == "recover.replay":
            # the refine kill that starts a recovery, then the replay kill
            assert round_.crashes >= 2
        if sweep_name == "storage":
            assert round_.debris_files >= 1, (
                f"{row.name}: no torn files on disk -- the kill site is "
                f"after the damage window"
            )
            # Past the bootstrap publish: the batch-2 checkpoint's seal
            # of an adjusted generation, not generation 0's.
            assert sealing[0].endswith("-g000000")
            assert not killed[0].endswith("-g000000"), killed
        if sweep_name == "chaos":
            # The applied fault schedule is recorded on the round.
            assert round_.schedule
            assert sum(round_.faults.values()) == len(round_.schedule)
        if row.name.startswith("lossy-links"):
            assert round_.dead_letters == 0
        if row.name == "black-hole":
            assert round_.dead_letters >= 1
            # The ledger is durable JSONL, one entry per abandoned
            # range, and the observation surface exposes its size.
            ledger = tmp_path / "dead_letter.jsonl"
            entries = [json.loads(line) for line in
                       ledger.read_text().splitlines() if line]
            assert len(entries) == round_.dead_letters
            assert all(entry["link"] == "r1" for entry in entries)
            assert all(entry["attempts"] >= 1 for entry in entries)
            status = replication_status(str(tmp_path))
            assert status["dead_letters"] == round_.dead_letters

    def test_same_coverage_as_the_five_hand_rolled_sweeps(self):
        assert {name: len(rows) for name, rows in SWEEPS.items()} == {
            "durable": 6, "resilient": 3, "replicated": 4 + 3 + 1,
            "chaos": 5 + 1, "storage": 6 + 7 + 1,
        }
        assert [row.name for row in SWEEPS["replicated"]] == [
            "writer-kill", "replica-kill", "segment-drop",
            "stale-writer-fence",
            # tail shipping: replicas ahead of the newest checkpoint, a
            # torn append under the cluster, a blob-only adoption
            "writer-kill-past-checkpoint", "torn-append",
            "blob-only-restart",
            # unsealed store generations: only what was fsynced survives
            "power-loss",
        ]

    def test_every_failpoint_has_a_row_on_the_topology_that_passes_it(
            self):
        """Adding a failpoint without a row (or a reason) fails here."""
        no_row = {
            "replication.reorder":
                "a planted reorder, not a kill: the lossy-link rows "
                "reorder at the transport and test_chaos pins "
                "exactly-once under it",
            "replica.query":
                "fails a replica-served query to drive router "
                "failover (test_router); crash rounds serve no "
                "replica queries",
            "wal.segment_read":
                "corrupt-only, on a read path: planted bit-rot for "
                "the scrubber (test_scrub), nothing to kill",
        }
        armed = {}
        for _, row in ROWS:  # the first topology that arms a site
            if row.arm is not None:
                armed.setdefault(row.arm[0], row.topology)
        assert set(armed) == set(KNOWN_SITES) - set(no_row)
        assert armed == {
            "wal.append": "durable",
            "wal.append.torn": "durable",
            "checkpoint.write": "durable",
            "checkpoint.replace": "durable",
            "engine.refine": "durable",
            "recover.replay": "durable",
            "admission.enqueue": "resilient",
            "query.deadline": "resilient",
            "breaker.probe": "resilient",
            "replication.ship": "cluster",
            "replication.receive": "cluster",
            "storage.segment_write": "durable",
            "storage.seal": "durable",
        }

    @pytest.mark.parametrize("sweep_name,node", [
        ("durable", "server"), ("resilient", "server"),
        ("replicated", "writer"),
    ])
    def test_planted_divergence_is_caught(self, sweep_name, node,
                                          tmp_path, monkeypatch):
        """Self-test: the shared verdict ladder is not passing
        vacuously -- against a perturbed ground truth every topology
        comes back MISMATCH naming the diverged node."""
        truth = crash._uninterrupted_values
        monkeypatch.setattr(crash, "_uninterrupted_values",
                            lambda workload: truth(workload) + 1e-9)
        round_ = run_row(SWEEPS[sweep_name][0], 7, str(tmp_path))
        assert not round_.ok
        assert round_.fired
        assert f"MISMATCH ({node} diverged" in round_.summary()

    def test_store_invariant_reports_debris_compact_left(
            self, tmp_path, monkeypatch):
        """Self-test of the storage rows' invariant: a stray temp and an
        unnamed own-label segment in a finished round's store are swept
        by ``compact()`` -- and named when a compact leaves them."""
        row = SWEEPS["storage"][0]
        assert run_row(row, 7, str(tmp_path)).ok
        store = tmp_path / "store"
        run = SimpleNamespace(store_root=str(store))
        planted = [".out_offsets-stray.tmp", "snap-g999999-out_offsets.seg"]

        def plant():
            for name in planted:
                (store / name).write_bytes(b"debris")

        plant()
        assert row.invariant(run) == ""
        assert not any((store / name).exists() for name in planted)
        plant()
        monkeypatch.setattr(MmapStore, "compact", lambda self: [])
        detail = row.invariant(run)
        assert detail.startswith("debris survived compact")
        assert all(name in detail for name in planted)


class TestSweep:
    def test_chaos_coverage_is_its_own_entry(self, tmp_path):
        results = sweep("chaos", seed=0, state_root=str(tmp_path))
        *rounds, coverage = results
        assert [round_.scenario for round_ in rounds] == [
            row.name for row in SWEEPS["chaos"]]
        assert coverage.scenario == "fault-kind-coverage"
        assert all(round_.ok for round_ in results)
        assert all(coverage.faults[kind] > 0 for kind in FAULT_KINDS)
        # Corruption reached both CRC gates of a segment shipment.
        assert all(coverage.answers[gate] > 0 for gate in NACK_GATES)
        # ok rounds leave nothing behind under the caller's root
        assert os.listdir(tmp_path) == []

    def test_missing_fault_kind_fails_the_sweep_not_a_round(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(SWEEPS, "chaos", SWEEPS["chaos"][3:4])
        results = sweep("chaos", seed=0, state_root=str(tmp_path))
        assert [round_.ok for round_ in results] == [True, False]
        assert "never fired across the sweep" in results[-1].detail

    def test_sweep_owns_its_temp_root(self, monkeypatch):
        def roots():
            return {name for name in os.listdir(tempfile.gettempdir())
                    if name.startswith("crash-sweep-")}

        before = roots()
        assert all(r.ok for r in sweep("resilient", seed=7))
        assert roots() == before  # every round ok: root removed

        truth = crash._uninterrupted_values
        monkeypatch.setattr(crash, "_uninterrupted_values",
                            lambda workload: truth(workload) + 1e-9)
        lines = []
        results = sweep("resilient", seed=7, emit=lines.append)
        kept = roots() - before
        try:
            assert not any(round_.ok for round_ in results)
            assert len(kept) == 1  # failing rounds: root kept, emitted
            root = os.path.join(tempfile.gettempdir(), kept.pop())
            assert any(root in line for line in lines)
            for row in SWEEPS["resilient"]:
                assert os.path.isdir(os.path.join(root, row.name))
                with open(os.path.join(
                        root, row.name + ".repro.txt")) as stream:
                    assert ("repro fuzz --crash --sweep resilient "
                            "--seed 7") in stream.read()
        finally:
            for name in roots() - before:
                shutil.rmtree(os.path.join(tempfile.gettempdir(), name))

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="pick from"):
            sweep("nope")


class TestSingleRound:
    WORKLOAD = dict(algorithms=["pagerank"], max_vertices=24,
                    max_batches=6)

    def test_crash_during_recovery_recovers(self, tmp_path):
        workload = generate_workload(3, **self.WORKLOAD)
        round_ = run_scenario(
            Scenario("recover.replay", "durable",
                     ("recover.replay", "crash", 1)),
            workload, str(tmp_path / "state"),
        )
        assert round_.ok, round_.summary()
        assert round_.crashes >= 2  # the refine kill plus the replay kill

    def test_unfired_failpoint_still_equivalent(self, tmp_path):
        workload = generate_workload(3, **self.WORKLOAD)
        unreachable = Scenario("engine.refine", "durable",
                               ("engine.refine", "crash", 10_000),
                               must_fire=False)
        round_ = run_scenario(unreachable, workload,
                              str(tmp_path / "state"))
        assert round_.ok
        assert round_.crashes == 0 and not round_.fired

    def test_unfired_table_row_proves_nothing(self, tmp_path):
        workload = generate_workload(3, **self.WORKLOAD)
        unreachable = Scenario("engine.refine", "durable",
                               ("engine.refine", "crash", 10_000))
        round_ = run_scenario(unreachable, workload,
                              str(tmp_path / "state"))
        assert not round_.ok
        assert round_.detail == "planted failure never fired"


class TestCampaign:
    def test_small_campaign_is_clean(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        rounds = run_crash_fuzz(seed=0, rounds=4,
                                artifacts_dir=str(artifacts))
        assert len(rounds) == 4
        assert all(r.ok for r in rounds), [r.summary() for r in rounds]
        assert os.listdir(artifacts) == []


class TestPlantFault:
    def test_plant_a_fault_detects_live_failpoints(self):
        assert run_plant_fault()
