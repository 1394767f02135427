"""Tests for the wide-event emitter (seq, tail ring, journal flow)."""

import pytest

from repro.obs.events import WideEventEmitter
from repro.obs.journal import JsonlJournal
from repro.obs.registry import scoped_registry
from tests.conftest import journal_records


class TestWideEventEmitter:
    def test_seq_is_contiguous_across_kinds(self):
        with scoped_registry():
            emitter = WideEventEmitter()
            emitter.emit("batch", index=0)
            emitter.emit("query", index=0)
            emitter.emit("batch", index=1)
            assert [e["seq"] for e in emitter.events()] == [0, 1, 2]
            assert emitter.emitted == 3

    def test_records_carry_type_kind_and_fields(self):
        with scoped_registry():
            emitter = WideEventEmitter()
            record = emitter.emit("batch", index=7, breaker_state="open")
            assert record["type"] == "wide"
            assert record["kind"] == "batch"
            assert record["index"] == 7
            assert record["breaker_state"] == "open"

    @pytest.mark.parametrize("reserved", ["type", "seq"])
    def test_emitter_owned_keys_rejected(self, reserved):
        with scoped_registry():
            emitter = WideEventEmitter()
            with pytest.raises(ValueError, match="emitter-owned"):
                emitter.emit("batch", **{reserved: 99})

    def test_tail_ring_bounds_memory_but_seq_keeps_counting(self):
        with scoped_registry():
            emitter = WideEventEmitter()
            for index in range(520):
                emitter.emit("batch", index=index)
            tail = emitter.events()
            assert [e["seq"] for e in tail] == list(range(8, 520))
            assert emitter.emitted == 520

    def test_journal_sees_every_event_past_capacity(self, tmp_path):
        path = str(tmp_path / "wide.jsonl")
        with scoped_registry():
            with JsonlJournal.open(path) as journal:
                emitter = WideEventEmitter(journal=journal)
                for index in range(520):
                    emitter.emit("batch", index=index)
        records = journal_records(path, "wide")
        assert [r["seq"] for r in records] == list(range(520))

    def test_emission_volume_counted_in_registry(self):
        with scoped_registry() as registry:
            emitter = WideEventEmitter()
            for index in range(4):
                emitter.emit("batch", index=index)
            assert registry.counter("obs.wide_events").value == 4
