"""Unit tests for trace-tree reconstruction and text rendering."""

from repro.obs.render import build_tree, format_trace


def span(id, parent, name, start, duration, **tags):
    return {"type": "span", "id": id, "parent": parent, "name": name,
            "start": start, "duration": duration, "tags": tags}


def batch_events():
    """One batch with two refine iterations and a forward phase."""
    return [
        span(1, 0, "adjust_structure", 0.0, 0.1),
        span(3, 2, "iteration", 0.1, 0.2, index=1),
        span(4, 2, "iteration", 0.3, 0.3, index=2),
        span(2, 0, "refine", 0.1, 0.5),
        span(5, 0, "forward", 0.6, 0.4),
        span(0, None, "batch", 0.0, 1.0, index=0, mutations=50),
    ]


class TestBuildTree:
    def test_reconstructs_forest(self):
        (root,) = build_tree(batch_events())
        assert root["name"] == "batch"
        assert [child["name"] for child in root["children"]] == [
            "adjust_structure", "refine", "forward",
        ]
        refine = root["children"][1]
        assert [c["tags"]["index"] for c in refine["children"]] == [1, 2]

    def test_orphans_become_roots(self):
        # Parent evicted from the ring buffer: the child still renders.
        events = [span(7, 99, "refine", 0.0, 0.5)]
        (root,) = build_tree(events)
        assert root["name"] == "refine"

    def test_non_span_records_ignored(self):
        events = [{"type": "run", "engine": "graphbolt"}] + batch_events()
        assert len(build_tree(events)) == 1

    def test_multiple_roots_sorted_by_start(self):
        events = [
            span(1, None, "second", 1.0, 0.5),
            span(0, None, "first", 0.0, 0.5),
        ]
        roots = build_tree(events)
        assert [root["name"] for root in roots] == ["first", "second"]


class TestFormatTrace:
    def test_renders_phases_with_percentages(self):
        text = format_trace(batch_events(), title="demo")
        assert "demo" in text
        assert "batch" in text
        assert "refine" in text
        assert "forward" in text
        assert "50.0%" in text  # refine is half the batch
        assert "#" in text

    def test_collapsed_iterations_show_count(self):
        text = format_trace(batch_events())
        assert "iteration  x2" in text

    def test_empty_stream(self):
        assert "(no spans recorded)" in format_trace([])

    def test_max_depth_limits_recursion(self):
        shallow = format_trace(batch_events(), max_depth=1)
        assert "iteration" not in shallow
