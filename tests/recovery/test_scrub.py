"""Tests for the self-healing integrity scrubber.

The property stack, bottom up:

- a single flipped bit in ANY of the six snapshot-store segment
  arrays is detected by the scan (the CRC actually covers the
  payload, not just the header);
- single-direction damage is repaired **bit-for-bit** by rebuilding
  the damaged direction from the clean one -- proven by comparing the
  repaired file bytes against a pre-damage oracle, and gated on CRC
  equality *before* anything is replaced;
- damage in both directions cannot be rebuilt standalone: the
  generation is quarantined and dropped from the store manifest so
  nothing can open it again;
- a corrupt record in a sealed WAL segment is detected; when a newer
  checkpoint covers that history the repair garbage-collects the
  dead prefix, and when it does not the finding stays unrepaired
  (re-ship from a writer is the only honest fix);
- a corrupt checkpoint is sidelined so recovery falls back to the
  next loadable generation;
- at the cluster level, ``scrub(repair=True)`` escalates through the
  repair tiers (standalone, re-ship, full rebuild) and the
  ``integrity_quarantine`` ledger gates query routing in between.
"""

import json
import os

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.generators import rmat
from repro.graph.storage import ARRAY_NAMES, MmapStore
from repro.obs.registry import scoped_registry
from repro.recovery import (
    IntegrityScrubber,
    RecoveryManager,
    scrub_state_dir,
)
from repro.recovery.manager import list_checkpoints
from repro.serving import StreamingAnalyticsServer
from tests.conftest import make_random_batch

_HEADER_SIZE = 64  # segment header; flips land in the payload


@pytest.fixture
def graph():
    return rmat(scale=6, edge_factor=4, seed=3, weighted=True)


def flip_payload_byte(path):
    with open(path, "rb") as stream:
        data = bytearray(stream.read())
    assert len(data) > _HEADER_SIZE
    data[_HEADER_SIZE + len(data) // 2] ^= 0x01
    with open(path, "wb") as stream:
        stream.write(data)


def publish_store(root, graph):
    """Publish one generation; return (snapshot_id, array -> file)."""
    MmapStore(str(root)).publish(graph)
    with open(os.path.join(str(root), "manifest.json"),
              encoding="utf-8") as stream:
        manifest = json.load(stream)
    snapshot = manifest["current"]
    files = {name: meta["file"] for name, meta
             in manifest["snapshots"][snapshot]["arrays"].items()}
    return snapshot, files


def read_files(root, files):
    contents = {}
    for name, file_name in files.items():
        with open(os.path.join(str(root), file_name), "rb") as stream:
            contents[name] = stream.read()
    return contents


# ----------------------------------------------------------------------
# Store segments: detection
# ----------------------------------------------------------------------
class TestStoreScan:
    def test_clean_store_scans_clean(self, graph, tmp_path):
        publish_store(tmp_path / "store", graph)
        scrubber = IntegrityScrubber(str(tmp_path / "state"),
                                     store_root=str(tmp_path / "store"))
        report = scrubber.scan()
        assert report.ok
        assert report.checked["store_segments"] == len(ARRAY_NAMES)
        # The persisted report is the dashboard / CI artifact surface.
        with open(tmp_path / "state" / "scrub-report.json",
                  encoding="utf-8") as stream:
            persisted = json.load(stream)
        assert persisted["ok"] is True

    @pytest.mark.parametrize("array", ARRAY_NAMES)
    def test_one_flipped_bit_in_any_array_is_found(self, graph,
                                                   tmp_path, array):
        store = tmp_path / "store"
        snapshot, files = publish_store(store, graph)
        flip_payload_byte(os.path.join(str(store), files[array]))
        with scoped_registry() as registry:
            report = IntegrityScrubber(
                str(tmp_path / "state"), store_root=str(store)
            ).scan()
            assert registry.counter(
                "scrub.corruption_found").value == 1
        assert not report.ok
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.kind == "store"
        assert finding.array == array
        assert finding.snapshot == snapshot
        assert not finding.repaired


# ----------------------------------------------------------------------
# Store segments: repair
# ----------------------------------------------------------------------
class TestStoreRepair:
    @pytest.mark.parametrize("array", ["out_targets", "in_sources",
                                       "out_weights", "in_offsets"])
    def test_single_direction_damage_repairs_bit_for_bit(
            self, graph, tmp_path, array):
        store = tmp_path / "store"
        _snapshot, files = publish_store(store, graph)
        oracle = read_files(store, files)
        flip_payload_byte(os.path.join(str(store), files[array]))
        report = scrub_state_dir(str(tmp_path / "state"),
                                 store_root=str(store), repair=True)
        assert report.repaired
        finding = report.findings[0]
        assert finding.repaired
        assert "rebuilt" in finding.repair
        # Bit-for-bit: every file equals the pre-damage oracle.
        assert read_files(store, files) == oracle
        # And a fresh scan agrees.
        assert IntegrityScrubber(
            str(tmp_path / "state"), store_root=str(store)
        ).scan(write_report=False).ok

    def test_both_directions_damaged_quarantines_the_generation(
            self, graph, tmp_path):
        store = tmp_path / "store"
        snapshot, files = publish_store(store, graph)
        flip_payload_byte(os.path.join(str(store),
                                       files["out_targets"]))
        flip_payload_byte(os.path.join(str(store),
                                       files["in_sources"]))
        with scoped_registry() as registry:
            report = scrub_state_dir(str(tmp_path / "state"),
                                     store_root=str(store),
                                     repair=True)
            assert registry.counter("scrub.quarantined").value == 1
        # With a manifest the sideline counts as handled: nothing can
        # open the rotten generation again.
        assert report.repaired
        for finding in report.findings:
            assert "quarantined" in finding.repair
        quarantine = store / "quarantine"
        assert sorted(os.listdir(quarantine)) == sorted(files.values())
        with open(store / "manifest.json", encoding="utf-8") as stream:
            manifest = json.load(stream)
        assert snapshot not in manifest["snapshots"]
        assert manifest["current"] != snapshot


# ----------------------------------------------------------------------
# WAL segments and checkpoints
# ----------------------------------------------------------------------
def drive_state_dir(graph, root, batches=7, checkpoint_every=2):
    """A writer state dir with sealed WAL segments + checkpoints:
    with 7 batches, checkpoints land at 2/4/6 (4 and 6 retained) and
    the WAL keeps segment [4,6) (sealed, covered by checkpoint 6)
    plus the open tail [6,7)."""
    rng = np.random.default_rng(17)
    manager = RecoveryManager(str(root),
                              checkpoint_every=checkpoint_every,
                              retain=2, segment_records=2)
    server = StreamingAnalyticsServer(
        lambda: PageRank(), graph, approx_iterations=3,
        recovery=manager,
    )
    for _ in range(batches):
        server.ingest(make_random_batch(graph, rng, 6, 6))
    return server


def wal_segments(root):
    wal_dir = os.path.join(str(root), "wal")
    return sorted(name for name in os.listdir(wal_dir)
                  if name.endswith(".jsonl"))


class TestWalScrub:
    def test_clean_state_dir_scans_clean(self, graph, tmp_path):
        drive_state_dir(graph, tmp_path)
        report = IntegrityScrubber(str(tmp_path)).scan()
        assert report.ok, [f.detail for f in report.findings]
        assert report.checked["wal_segments"] == 2
        assert report.checked["checkpoints"] == 2

    def test_bit_rot_in_a_sealed_segment_is_found(self, graph,
                                                  tmp_path):
        drive_state_dir(graph, tmp_path)
        sealed = wal_segments(tmp_path)[0]
        flip_payload_byte(os.path.join(str(tmp_path), "wal", sealed))
        report = IntegrityScrubber(str(tmp_path)).scan()
        assert not report.ok
        assert report.findings[0].kind == "wal"
        assert "corrupt record" in report.findings[0].detail

    def test_truncated_sealed_segment_is_found(self, graph, tmp_path):
        drive_state_dir(graph, tmp_path)
        path = os.path.join(str(tmp_path), "wal",
                            wal_segments(tmp_path)[0])
        with open(path, "rb") as stream:
            data = stream.read()
        with open(path, "wb") as stream:
            stream.write(data[:-3])  # tear the final record's tail
        report = IntegrityScrubber(str(tmp_path)).scan()
        assert not report.ok
        assert any("unterminated" in f.detail or "corrupt record"
                   in f.detail for f in report.findings)

    def test_covered_damage_is_garbage_collected(self, graph,
                                                 tmp_path):
        drive_state_dir(graph, tmp_path)
        sealed = wal_segments(tmp_path)[0]
        flip_payload_byte(os.path.join(str(tmp_path), "wal", sealed))
        report = IntegrityScrubber(str(tmp_path)).repair()
        assert report.repaired
        assert "garbage-collected" in report.findings[0].repair
        # The dead prefix was sidelined whole; the open tail survives.
        assert sealed not in wal_segments(tmp_path)
        assert os.path.exists(os.path.join(str(tmp_path), "wal",
                                           "quarantine", sealed))
        assert IntegrityScrubber(str(tmp_path)).scan(
            write_report=False).ok

    def test_uncovered_damage_stays_unrepaired(self, graph, tmp_path):
        drive_state_dir(graph, tmp_path)
        tail = wal_segments(tmp_path)[-1]  # above the newest checkpoint
        flip_payload_byte(os.path.join(str(tmp_path), "wal", tail))
        report = IntegrityScrubber(str(tmp_path)).repair()
        assert not report.repaired
        finding = report.findings[0]
        assert not finding.repaired
        assert "re-ship from a writer" in finding.repair
        # Nothing was destroyed in the failed attempt.
        assert tail in wal_segments(tmp_path)

    def test_corrupt_checkpoint_is_sidelined(self, graph, tmp_path):
        drive_state_dir(graph, tmp_path)
        ckpt_dir = os.path.join(str(tmp_path), "checkpoints")
        oldest = os.path.basename(list_checkpoints(ckpt_dir)[0][1])
        flip_payload_byte(os.path.join(ckpt_dir, oldest))
        scan = IntegrityScrubber(str(tmp_path)).scan(
            write_report=False)
        assert [f.kind for f in scan.findings] == ["checkpoint"]
        report = IntegrityScrubber(str(tmp_path)).repair()
        assert report.repaired
        assert "sidelined" in report.findings[0].repair
        assert os.path.exists(os.path.join(ckpt_dir, "quarantine",
                                           oldest))
        assert IntegrityScrubber(str(tmp_path)).scan(
            write_report=False).ok


# ----------------------------------------------------------------------
# Cluster-level scrub: quarantine gating + escalating repair
# ----------------------------------------------------------------------
class TestClusterScrub:
    def build(self, graph, rng, root, batches=7, transport="inproc"):
        from tests.serving.test_replication import build_cluster

        cluster = build_cluster(graph, root, replicas=2,
                                transport=transport)
        for _ in range(batches):
            cluster.submit(make_random_batch(graph, rng, 6, 6))
            cluster.replicate()
        assert cluster.sync()
        return cluster

    def test_clean_cluster_scrubs_clean(self, graph, rng, tmp_path):
        cluster = self.build(graph, rng, tmp_path)
        reports = cluster.scrub()
        assert set(reports) == {"writer", "r0", "r1"}
        assert all(report.ok for report in reports.values())
        assert cluster.integrity_quarantine == {}
        cluster.close()

    def test_detection_quarantines_until_repair_heals(self, graph, rng,
                                                      tmp_path):
        cluster = self.build(graph, rng, tmp_path)
        replica = cluster.replicas["r0"]
        flip_payload_byte(list_checkpoints(
            os.path.join(replica.directory, "checkpoints"))[0][1])
        # Scan-only: the damaged replica is pulled from routing.
        reports = cluster.scrub(repair=False)
        assert not reports["r0"].ok
        assert "r0" in cluster.integrity_quarantine
        assert cluster.status()["replicas"]["r0"]["quarantined"]
        # Repair (tier 1, standalone): sideline + clear quarantine.
        reports = cluster.scrub(repair=True)
        assert reports["r0"].repaired
        assert cluster.integrity_quarantine == {}
        cluster.close()

    def test_mirror_damage_above_checkpoint_rebuilds_replica(
            self, graph, rng, tmp_path, transport="inproc"):
        cluster = self.build(graph, rng, tmp_path, transport=transport)
        replica = cluster.replicas["r0"]
        tail = sorted(
            name for name in os.listdir(
                os.path.join(replica.directory, "wal"))
            if name.endswith(".jsonl")
        )[-1]
        flip_payload_byte(os.path.join(replica.directory, "wal", tail))
        with scoped_registry() as registry:
            reports = cluster.scrub(repair=True)
            assert registry.counter(
                "replication.replicas_rebuilt").value == 1
        assert reports["r0"].repaired
        assert any("rebuilt from writer" in f.repair
                   for f in reports["r0"].findings)
        assert cluster.integrity_quarantine == {}
        # The rebuilt replica is a different object, fully caught up
        # and bit-for-bit with the writer.
        rebuilt = cluster.replicas["r0"]
        assert rebuilt is not replica
        assert cluster.max_lag() == 0
        assert np.array_equal(rebuilt.approximate_values,
                              cluster.writer.approximate_values)
        # And its durable state is clean.
        assert IntegrityScrubber(
            rebuilt.directory, store_root=rebuilt.store_root
        ).scan(write_report=False).ok
        cluster.close()

    def test_rebuild_spares_a_directory_links_spool(self, graph, rng,
                                                    tmp_path):
        """The spool lives inside the directory the rebuild wipes."""
        self.test_mirror_damage_above_checkpoint_rebuilds_replica(
            graph, rng, tmp_path, transport="directory")
