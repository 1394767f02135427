"""Unit tests for experiment reporting."""

import json
import os

from repro.bench.reporting import format_table, save_results


class TestFormatTable:
    def test_alignment(self):
        table = format_table(
            ["Name", "Value"], [["a", 1.0], ["bbbb", 123456.0]],
            title="Demo",
        )
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "Name" in lines[1]
        widths = {len(line) for line in lines[1:] if line.strip()}
        # Header and separator line up.
        assert len(lines[2]) == len(lines[1])

    def test_float_formatting(self):
        table = format_table(["x"], [[0.00012345], [1234567.0], [0.5], [0]])
        assert "0.000123" in table
        assert "1.23e+06" in table
        assert "0.500" in table

    def test_empty_rows(self):
        table = format_table(["A", "B"], [])
        assert "A" in table


class TestPersistence:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.reporting.results_dir", lambda: str(tmp_path)
        )
        path = save_results("demo", {"a": [1, 2], "b": "x"})
        assert os.path.exists(path)
        with open(path) as handle:
            assert json.load(handle) == {"a": [1, 2], "b": "x"}
