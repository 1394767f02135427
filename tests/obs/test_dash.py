"""Tests for the dashboard renderer: streams, gap check, replay pin."""

import pytest

from repro.obs.dash import (
    dashboard_from_journal,
    render_dashboard,
    replay_slos,
    seq_warnings,
    sparkline,
    split_journal,
)
from repro.obs.journal import JsonlJournal
from repro.obs.registry import scoped_registry
from repro.obs.slo import SLO, SLOEvaluator


def soak_slo():
    return SLO(name="soak-ingest-latency", signal="ingest_latency",
               op="<", threshold=1.0, budget=0.1, fast_window=4,
               slow_window=8, fast_burn=5.0, slow_burn=2.5)


def batch_event(seq, index, ingest_seconds):
    return {
        "type": "wide", "kind": "batch", "seq": seq, "index": index,
        "seconds": ingest_seconds, "ingest_seconds": ingest_seconds,
        "breaker_state": "closed", "queue_depth": 0,
        "samples": {"ingest_latency": ingest_seconds},
    }


def query_event(seq, index, seconds, degraded=False):
    return {
        "type": "wide", "kind": "query", "seq": seq, "index": index,
        "seconds": seconds, "degraded": degraded,
    }


def health_record(seq, breaker_state="closed"):
    return {"type": "health", "event": "health", "seq": seq,
            "breaker_state": breaker_state, "queue_depth": 0,
            "staleness_batches": 0, "admission_policy": "block",
            "submitted": seq, "applied": seq, "shed": 0,
            "coalesced": 0, "quarantine_count": 0, "restores": 0}


class TestSparkline:
    def test_maps_range_onto_blocks(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_renders_flat(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_empty_and_width(self):
        assert sparkline([]) == "(no data)"
        assert len(sparkline(list(range(100)), width=16)) == 16


class TestSplitJournal:
    def test_streams_partition_by_discriminator(self):
        records = [
            health_record(0),
            batch_event(0, 0, 0.01),
            query_event(1, 0, 0.02),
            batch_event(2, 1, 0.01),
            {"type": "alert", "slo": "x", "state": "firing"},
            {"type": "span", "name": "ingest"},
        ]
        streams = split_journal(records)
        assert len(streams["health"]) == 1
        assert len(streams["batches"]) == 2
        assert len(streams["queries"]) == 1
        assert len(streams["alerts"]) == 1
        assert len(streams["other"]) == 1
        # The merged wide stream keeps journal order for the seq check.
        assert [r["seq"] for r in streams["wide"]] == [0, 1, 2]


class TestSeqWarnings:
    def test_contiguous_streams_are_clean(self):
        streams = split_journal([
            health_record(0), batch_event(0, 0, 0.01),
            query_event(1, 0, 0.02), health_record(1),
            batch_event(2, 1, 0.01),
        ])
        assert seq_warnings(streams) == []

    def test_interleaved_kinds_share_one_sequence(self):
        """Batch and query events come from one emitter: checking the
        kinds separately would see bogus gaps; the merged stream must
        not."""
        records = [batch_event(0, 0, 0.01), query_event(1, 0, 0.02),
                   batch_event(2, 1, 0.01), query_event(3, 1, 0.02)]
        assert seq_warnings(split_journal(records)) == []

    def test_gap_detected(self):
        streams = split_journal([batch_event(0, 0, 0.01),
                                 batch_event(3, 1, 0.01)])
        (warning,) = seq_warnings(streams)
        assert "gap between seq 0 and 3" in warning
        assert "2 record(s) missing" in warning

    def test_reorder_detected(self):
        streams = split_journal([batch_event(2, 0, 0.01),
                                 batch_event(1, 1, 0.01)])
        (warning,) = seq_warnings(streams)
        assert "backwards" in warning

    def test_health_gap_detected_independently(self):
        streams = split_journal([health_record(0), health_record(2)])
        (warning,) = seq_warnings(streams)
        assert warning.startswith("health snapshots")

    def test_pre_seq_records_flagged_not_crashed(self):
        old = batch_event(0, 0, 0.01)
        del old["seq"]
        streams = split_journal([old, batch_event(1, 1, 0.01)])
        (warning,) = seq_warnings(streams)
        assert "lack a 'seq'" in warning


class TestReplayPin:
    def plant_run(self, total=16, plant_from=10):
        """A live evaluator run plus the wide events it would journal."""
        with scoped_registry():
            evaluator = SLOEvaluator([soak_slo()])
            events = []
            for index in range(total):
                value = 9.9 if index >= plant_from else 0.01
                evaluator.tick({"ingest_latency": value}, index=index)
                events.append(batch_event(index, index, value))
            return evaluator.alerts, events

    def test_replay_reproduces_live_alerts_exactly(self):
        """The replay determinism pin: wide events embed the samples
        the live evaluator consumed, so ``repro dash --from-journal``
        reproduces burn rates and alert indices bit-for-bit."""
        live_alerts, events = self.plant_run()
        with scoped_registry():
            replayed = replay_slos([soak_slo()], events).alerts
        assert [(a.slo, a.state, a.index, a.fast_burn, a.slow_burn)
                for a in replayed] == [
            (a.slo, a.state, a.index, a.fast_burn, a.slow_burn)
            for a in live_alerts]
        assert replayed[0].index == 11  # the pinned firing index

    def test_replay_skips_sampleless_events(self):
        event = batch_event(0, 0, 9.9)
        del event["samples"]
        with scoped_registry():
            evaluator = replay_slos([soak_slo()], [event])
            assert evaluator.firing == []


class TestRenderDashboard:
    def frame(self, records, slos=None):
        with scoped_registry():
            return render_dashboard(split_journal(records), slos=slos)

    def test_panels_present(self):
        text = self.frame([health_record(0), batch_event(0, 0, 0.01),
                           query_event(1, 0, 0.02)])
        for panel in ("SLO status", "Serving", "Latency",
                      "Sequence check: ok"):
            assert panel in text

    def test_slo_panel_shows_firing_state(self):
        _, events = TestReplayPin().plant_run()
        text = self.frame(events, slos=[soak_slo()])
        assert "FIRING" in text
        assert "soak-ingest-latency" in text
        assert "fired" in text

    def test_breaker_timeline_from_health_stream(self):
        text = self.frame([health_record(0), health_record(1, "open"),
                           health_record(2, "closed")])
        assert "breaker timeline: closed@0 -> open@1 -> closed@2" in text

    def test_gap_renders_warning_panel(self):
        text = self.frame([batch_event(0, 0, 0.01),
                           batch_event(5, 1, 0.01)])
        assert "Sequence check: WARNING" in text
        assert "gap between seq 0 and 5" in text

    def test_empty_journal_renders(self):
        text = self.frame([])
        assert "0 journal record(s)" in text
        assert "(no health snapshots journaled)" in text

    def test_dashboard_from_journal_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with JsonlJournal.open(path) as journal:
            journal.write(health_record(0))
            journal.write(batch_event(0, 0, 0.01))
        with scoped_registry():
            text, streams = dashboard_from_journal(path)
        assert path in text
        assert len(streams["batches"]) == 1

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dashboard_from_journal(str(tmp_path / "absent.jsonl"))


def replica_event(seq, name, lag, alive=True, rejections=0, epoch=1):
    return {
        "type": "wide", "kind": "replica", "seq": seq, "name": name,
        "alive": alive, "applied_seq": 10 - lag, "lag_batches": lag,
        "fence_epoch": epoch, "fence_rejections": rejections,
        "inbox_pending": 0, "epoch": epoch,
    }


class TestReplicationPanel:
    def test_replica_events_stay_in_the_merged_wide_stream(self):
        """Replica events share the batch/query emitter sequence: they
        must ride the merged stream or the gap check sees bogus holes."""
        records = [
            batch_event(0, 0, 0.01),
            replica_event(1, "r0", 0),
            replica_event(2, "r1", 1),
            batch_event(3, 1, 0.01),
        ]
        streams = split_journal(records)
        assert len(streams["replicas"]) == 2
        assert len(streams["batches"]) == 2
        assert [r["seq"] for r in streams["wide"]] == [0, 1, 2, 3]
        assert seq_warnings(streams) == []

    def test_panel_renders_lag_fence_and_liveness(self):
        records = [
            replica_event(0, "r0", 0),
            replica_event(1, "r1", 0),
            replica_event(2, "r0", 3, alive=False),
            replica_event(3, "r1", 0, rejections=2, epoch=2),
        ]
        with scoped_registry():
            text = render_dashboard(split_journal(records))
        assert "Replication" in text
        assert "DOWN" in text            # r0's final state
        assert "fence=e2" in text        # r1 fenced at the new epoch
        assert "rejections=2" in text
        assert "epoch=2" in text
        assert "now=3" in text           # r0's last reported lag

    def test_no_replica_events_no_panel(self):
        with scoped_registry():
            text = render_dashboard(
                split_journal([batch_event(0, 0, 0.01)]))
        assert "Replication" not in text
