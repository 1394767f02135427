"""Tests for the write-ahead log: round trips, torn tails, CRC, GC."""

import json
import os

import numpy as np
import pytest

from repro.graph.mutation import MutationBatch
from repro.recovery.wal import (
    WALCorruptionError,
    WriteAheadLog,
    batch_to_payload,
    payload_to_batch,
)
from repro.testing.faults import InjectedCrash, scoped_failpoints


def make_batches(count, seed=0):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(count):
        adds = [(int(rng.integers(0, 20)), int(rng.integers(0, 20)))
                for _ in range(int(rng.integers(1, 6)))]
        adds = [(u, v) for u, v in adds if u != v]
        weights = (rng.random(len(adds)) + 0.5).tolist()
        batches.append(MutationBatch.from_edges(
            additions=adds, add_weights=weights,
            grow_to=25 if rng.random() < 0.2 else None,
        ))
    return batches


def batches_equal(a: MutationBatch, b: MutationBatch) -> bool:
    return (
        np.array_equal(a.add_src, b.add_src)
        and np.array_equal(a.add_dst, b.add_dst)
        and np.array_equal(a.add_weight, b.add_weight)
        and np.array_equal(a.del_src, b.del_src)
        and np.array_equal(a.del_dst, b.del_dst)
        and a.grow_to == b.grow_to
    )


class TestRoundtrip:
    def test_payload_roundtrip_is_exact(self):
        batch = MutationBatch.from_edges(
            additions=[(0, 1), (2, 3)], deletions=[(4, 5)],
            add_weights=[0.1 + 0.2, 1.0 / 3.0],  # awkward doubles
            grow_to=9,
        )
        restored = payload_to_batch(
            json.loads(json.dumps(batch_to_payload(batch)))
        )
        assert batches_equal(batch, restored)

    def test_append_replay_roundtrip(self, tmp_path):
        batches = make_batches(10)
        with WriteAheadLog(str(tmp_path), segment_records=3) as wal:
            for index, batch in enumerate(batches):
                assert wal.append(batch) == index
        reopened = WriteAheadLog(str(tmp_path), segment_records=3)
        replayed = list(reopened.replay())
        assert [seq for seq, _ in replayed] == list(range(10))
        for (_, restored), original in zip(replayed, batches):
            assert batches_equal(restored, original)

    def test_replay_from_offset(self, tmp_path):
        batches = make_batches(7)
        with WriteAheadLog(str(tmp_path), segment_records=2) as wal:
            for batch in batches:
                wal.append(batch)
        wal = WriteAheadLog(str(tmp_path), segment_records=2)
        assert [seq for seq, _ in wal.replay(4)] == [4, 5, 6]

    def test_segments_rotate(self, tmp_path):
        with WriteAheadLog(str(tmp_path), segment_records=2) as wal:
            for batch in make_batches(5):
                wal.append(batch)
            assert len(wal.segments()) == 3
        wal = WriteAheadLog(str(tmp_path), segment_records=2)
        assert wal.next_seq == 5

    def test_append_resumes_after_reopen(self, tmp_path):
        batches = make_batches(4)
        with WriteAheadLog(str(tmp_path), segment_records=3) as wal:
            for batch in batches[:2]:
                wal.append(batch)
        with WriteAheadLog(str(tmp_path), segment_records=3) as wal:
            assert wal.append(batches[2]) == 2
            assert wal.append(batches[3]) == 3
        wal = WriteAheadLog(str(tmp_path), segment_records=3)
        assert [seq for seq, _ in wal.replay()] == [0, 1, 2, 3]


class TestTornTail:
    def test_partial_final_record_is_truncated(self, tmp_path):
        batches = make_batches(4)
        with WriteAheadLog(str(tmp_path)) as wal:
            for batch in batches:
                wal.append(batch)
            path = wal.segments()[-1]
        with open(path, "r+b") as stream:
            stream.seek(0, os.SEEK_END)
            stream.truncate(stream.tell() - 7)  # tear the last record
        wal = WriteAheadLog(str(tmp_path))
        assert wal.torn_records_truncated == 1
        assert wal.next_seq == 3
        assert [seq for seq, _ in wal.replay()] == [0, 1, 2]

    def test_torn_failpoint_end_to_end(self, tmp_path):
        batches = make_batches(3)
        with scoped_failpoints() as registry:
            registry.arm("wal.append.torn", hit=3)
            wal = WriteAheadLog(str(tmp_path))
            wal.append(batches[0])
            wal.append(batches[1])
            with pytest.raises(InjectedCrash):
                wal.append(batches[2])
            wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.torn_records_truncated == 1
        assert reopened.next_seq == 2
        # The torn slot is reusable: the record never committed.
        assert reopened.append(batches[2]) == 2
        reopened.close()

    def test_corrupt_crc_at_tail_truncates(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            for batch in make_batches(3):
                wal.append(batch)
            path = wal.segments()[-1]
        lines = open(path, encoding="utf-8").read().splitlines(True)
        record = json.loads(lines[-1])
        record["crc"] = (record["crc"] + 1) % 2**32
        lines[-1] = json.dumps(record) + "\n"
        open(path, "w", encoding="utf-8").writelines(lines)
        wal = WriteAheadLog(str(tmp_path))
        assert wal.next_seq == 2
        assert wal.torn_records_truncated == 1

    def test_mid_log_corruption_raises(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            for batch in make_batches(4):
                wal.append(batch)
            path = wal.segments()[-1]
        lines = open(path, encoding="utf-8").read().splitlines(True)
        lines[1] = lines[1][:20] + "garbage" + lines[1][20:]
        open(path, "w", encoding="utf-8").writelines(lines)
        with pytest.raises(WALCorruptionError, match="mid-segment"):
            WriteAheadLog(str(tmp_path))

    def test_sequence_gap_between_segments_raises(self, tmp_path):
        with WriteAheadLog(str(tmp_path), segment_records=2) as wal:
            for batch in make_batches(6):
                wal.append(batch)
            middle = wal.segments()[1]
        os.remove(middle)
        with pytest.raises(WALCorruptionError, match="expected"):
            WriteAheadLog(str(tmp_path), segment_records=2)


class TestGC:
    def test_gc_removes_covered_segments(self, tmp_path):
        with WriteAheadLog(str(tmp_path), segment_records=2) as wal:
            for batch in make_batches(6):
                wal.append(batch)
        wal = WriteAheadLog(str(tmp_path), segment_records=2)
        assert wal.gc(4) == 2
        assert [seq for seq, _ in wal.replay()] == [4, 5]
        assert wal.next_seq == 6

    def test_gc_keeps_partially_covered_segment(self, tmp_path):
        with WriteAheadLog(str(tmp_path), segment_records=4) as wal:
            for batch in make_batches(6):
                wal.append(batch)
        wal = WriteAheadLog(str(tmp_path), segment_records=4)
        assert wal.gc(3) == 0  # records 0-3 share a segment with... 0-3
        assert wal.gc(4) == 1
        assert wal.next_seq == 6

    def test_lost_record_failpoint_loses_nothing_durable(self, tmp_path):
        batches = make_batches(2)
        with scoped_failpoints() as registry:
            registry.arm("wal.append", hit=2)
            wal = WriteAheadLog(str(tmp_path))
            wal.append(batches[0])
            with pytest.raises(InjectedCrash):
                wal.append(batches[1])
            wal.close()
        wal = WriteAheadLog(str(tmp_path))
        assert wal.next_seq == 1  # the crashed append never committed


class TestSegmentViews:
    def test_views_cover_full_segments_and_the_open_tail(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_records=2)
        for batch in make_batches(5):
            wal.append(batch)
        views = wal.segment_views()
        # Two full segments plus the 1-record tail that is still
        # growing: a record is shippable once its append returned.
        assert [(v.first_seq, v.end_seq) for v in views] == [
            (0, 2), (2, 4), (4, 5)]
        assert all(os.path.exists(v.path) for v in views)
        # A view's raw lines decode to its exact records.
        assert [json.loads(line)["seq"] for line in views[0].lines()
                ] == [0, 1]
        wal.close()

    def test_lines_are_selected_by_position(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_records=8)
        for batch in make_batches(5):
            wal.append(batch)
        (view,) = wal.segment_views()
        picked = view.lines(2, 4)
        assert [json.loads(line)["seq"] for line in picked] == [2, 3]
        assert view.lines(5, 5) == [] and view.lines(4, 2) == []
        # The view is a snapshot: a later append does not leak into it,
        # and a fresh view of the grown segment reads on from there.
        wal.append(make_batches(1, seed=9)[0])
        assert len(view.lines()) == 5
        (grown,) = wal.segment_views()
        assert [json.loads(line)["seq"] for line in grown.lines(5)
                ] == [5]
        wal.close()
        # Offsets are rebuilt by the open-time scan.
        (reopened,) = WriteAheadLog(str(tmp_path),
                                    segment_records=8).segment_views()
        assert reopened.lines(2, 4) == picked

    def test_a_torn_tail_is_never_part_of_a_view(self, tmp_path):
        with scoped_failpoints() as registry:
            registry.arm("wal.append.torn", hit=3)
            wal = WriteAheadLog(str(tmp_path), segment_records=8)
            batches = make_batches(3)
            wal.append(batches[0])
            wal.append(batches[1])
            with pytest.raises(InjectedCrash):
                wal.append(batches[2])
            # Half of record 2 is on disk; the view stops at record 1.
            (view,) = wal.segment_views()
            assert (view.first_seq, view.end_seq) == (0, 2)
            assert [json.loads(line)["seq"] for line in view.lines()
                    ] == [0, 1]
            wal.close()

    def test_append_fsyncs_once_per_record(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        wal = WriteAheadLog(str(tmp_path), segment_records=2)
        for batch in make_batches(3):
            wal.append(batch)
        assert len(synced) == 3  # acknowledged => durable
        wal.close()


class TestSealedSegments:
    def test_seal_active_makes_the_tail_shippable(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_records=4)
        batches = make_batches(3)
        for batch in batches:
            wal.append(batch)
        assert wal.seal_active() is True
        assert wal.seal_active() is False  # idempotent no-op
        (tail,) = wal.segment_views()
        assert (tail.first_seq, tail.end_seq) == (0, 3)
        # The next append rolls a fresh segment at the frozen boundary.
        assert wal.append(make_batches(1, seed=9)[0]) == 3
        assert len(wal.segments()) == 2
        wal.close()

    def test_seal_active_on_empty_log_is_a_noop(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.seal_active() is False
        wal.close()


class TestFastForward:
    def test_positions_an_empty_log_for_checkpoint_adoption(
            self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_records=2)
        wal.fast_forward(6)
        assert wal.next_seq == 6
        # Appends resume at the adopted position.
        assert wal.append(make_batches(1)[0]) == 6
        wal.close()
        reopened = WriteAheadLog(str(tmp_path), segment_records=2)
        assert reopened.next_seq == 7
        reopened.close()

    def test_requires_an_empty_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(make_batches(1)[0])
        with pytest.raises(ValueError, match="empty"):
            wal.fast_forward(5)
        wal.close()

    def test_refuses_to_rewind(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.fast_forward(4)
        with pytest.raises(ValueError, match="backwards"):
            wal.fast_forward(2)
        wal.close()
