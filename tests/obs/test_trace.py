"""Unit tests for the span tracer and the JSONL journal sink."""

import json

import pytest

from repro.obs import JsonlJournal, read_journal
from repro.obs import trace
from repro.obs.trace import NULL_TRACER, Tracer
from tests.conftest import journal_records


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_nesting_records_parent_links(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("batch", index=0):
            with tracer.span("refine"):
                with tracer.span("iteration", index=1):
                    pass
            with tracer.span("forward"):
                pass
        events = tracer.events()
        by_name = {event["name"]: event for event in events}
        batch = by_name["batch"]
        assert batch["parent"] is None
        assert by_name["refine"]["parent"] == batch["id"]
        assert by_name["forward"]["parent"] == batch["id"]
        assert by_name["iteration"]["parent"] == by_name["refine"]["id"]
        # Post-order: children land before their parents.
        names = [event["name"] for event in events]
        assert names == ["iteration", "refine", "forward", "batch"]

    def test_sequential_ids_are_control_flow_only(self):
        def run(tracer):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass
            return [(e["id"], e["parent"], e["name"])
                    for e in tracer.events()]

        first = run(Tracer(clock=FakeClock(step=1.0)))
        second = run(Tracer(clock=FakeClock(step=0.001)))
        assert first == second  # ids never depend on timing

    def test_tags_at_open_and_mid_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("refine", horizon=7) as span:
            span.tag(mode="dense", touched=12)
        (event,) = tracer.events()
        assert event["tags"] == {"horizon": 7, "mode": "dense",
                                 "touched": 12}

    def test_duration_from_injected_clock(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("work"):
            pass
        (event,) = tracer.events()
        assert event["duration"] == pytest.approx(1.0)

    def test_exception_tags_error_and_propagates(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("batch"):
                raise ValueError("boom")
        (event,) = tracer.events()
        assert event["tags"]["error"] == "ValueError"
        assert tracer._stack == []  # stack unwound despite the raise

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(capacity=4, clock=FakeClock())
        for index in range(10):
            with tracer.span("span", index=index):
                pass
        events = tracer.events()
        assert len(events) == 4
        assert [e["tags"]["index"] for e in events] == [6, 7, 8, 9]

    def test_overflow_counts_dropped_spans(self):
        from repro.obs.registry import scoped_registry

        with scoped_registry() as registry:
            tracer = Tracer(capacity=4, clock=FakeClock())
            for index in range(10):
                with tracer.span("span", index=index):
                    pass
            # 10 spans through a 4-slot ring: 6 evictions, none silent.
            assert tracer.dropped == 6
            assert registry.counter("trace.dropped_spans").value == 6

    def test_no_drops_under_capacity(self):
        from repro.obs.registry import scoped_registry

        with scoped_registry() as registry:
            tracer = Tracer(capacity=8, clock=FakeClock())
            for _ in range(8):
                with tracer.span("span"):
                    pass
            assert tracer.dropped == 0
            assert registry.counter("trace.dropped_spans").value == 0

    def test_mark_and_slowest_since(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("before"):
            pass
        mark = tracer.mark()
        with tracer.span("apply"):       # duration 3 (outer span)
            with tracer.span("inner"):   # duration 1
                pass
        slowest = tracer.slowest_since(mark)
        assert slowest["name"] == "apply"
        assert slowest["id"] >= mark
        # Nothing after the tail mark.
        assert tracer.slowest_since(tracer.mark()) is None

    def test_null_tracer_mark_is_free(self):
        assert NULL_TRACER.mark() == 0
        assert NULL_TRACER.slowest_since(0) is None
        assert NULL_TRACER.dropped == 0

    def test_sink_sees_every_span_past_capacity(self):
        class ListSink:
            def __init__(self):
                self.records = []

            def write(self, record):
                self.records.append(record)

        sink = ListSink()
        tracer = Tracer(capacity=2, sink=sink, clock=FakeClock())
        for _ in range(5):
            with tracer.span("span"):
                pass
        assert len(sink.records) == 5

    def test_clear(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.events() == []


class TestModuleDispatch:
    def test_default_is_null_tracer(self):
        assert trace.get_tracer() is NULL_TRACER
        assert not trace.enabled()

    def test_null_span_is_inert(self):
        span = trace.span("anything", key="value")
        with span as handle:
            handle.tag(more="tags")  # must not raise
        assert NULL_TRACER.events() == []

    def test_activated_installs_and_restores(self):
        tracer = Tracer(clock=FakeClock())
        with trace.activated(tracer):
            assert trace.enabled()
            assert trace.get_tracer() is tracer
            with trace.span("inside"):
                pass
        assert trace.get_tracer() is NULL_TRACER
        assert [e["name"] for e in tracer.events()] == ["inside"]

    def test_activated_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with trace.activated(Tracer(clock=FakeClock())):
                raise RuntimeError("boom")
        assert trace.get_tracer() is NULL_TRACER

    def test_install_none_means_disable(self):
        previous = trace.install(None)
        try:
            assert trace.get_tracer() is NULL_TRACER
        finally:
            trace.install(previous)


class TestJournal:
    def test_roundtrip_and_filter(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JsonlJournal.open(str(path)) as journal:
            journal.write({"type": "run", "engine": "graphbolt"})
            journal.write({"type": "batch", "index": 0})
            journal.write({"type": "batch", "index": 1})
        assert journal.records_written == 3
        assert len(read_journal(str(path))) == 3
        batches = journal_records(str(path), "batch")
        assert [record["index"] for record in batches] == [0, 1]

    def test_append_mode(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JsonlJournal.open(str(path)) as journal:
            journal.write({"type": "run"})
        with JsonlJournal.open(str(path), append=True) as journal:
            journal.write({"type": "batch"})
        assert len(read_journal(str(path))) == 2

    def test_numpy_scalars_serialise(self, tmp_path):
        numpy = pytest.importorskip("numpy")
        path = tmp_path / "journal.jsonl"
        with JsonlJournal.open(str(path)) as journal:
            journal.write({"type": "batch",
                           "value": numpy.float64(0.5),
                           "count": numpy.int64(3)})
        (record,) = read_journal(str(path))
        assert record["value"] == 0.5
        assert record["count"] == 3

    def test_tracer_sink_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlJournal.open(str(path)) as journal:
            tracer = Tracer(sink=journal, clock=FakeClock())
            with tracer.span("batch", index=0):
                with tracer.span("refine"):
                    pass
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["refine", "batch"]
        assert all(r["type"] == "span" for r in records)
