"""Smoke tests for the experiment drivers (tiny configurations) and
unit tests for the matrix reducers (hand-built payloads).

The full-scale runs live in ``benchmarks/``; here each driver is
exercised end-to-end with minimal parameters so that payload schema,
table rendering, and the ``python -m repro.bench`` wrapper stay
correct, and each reducer is checked as the pure function it is.
"""

import json

import pytest

from repro.bench import experiments as exp
from repro.bench.__main__ import EXPERIMENTS
from repro.bench.__main__ import main as bench_main
from repro.bench.workloads import uniform_batch
from repro.graph.generators import paper_graph


def bench_payload(*runs):
    """A hand-built ``BENCH_*`` payload: each run is ``(config,
    stream_edges, seconds)``; only what the reducers read is filled."""
    return {"runs": [
        {"config": config,
         "work": {"stream_edge_computations": edges},
         "timing": {"compute_seconds": seconds}}
        for config, edges, seconds in runs
    ]}


class TestDrivers:
    def test_table1_payload(self):
        payload = exp.experiment_table1(num_batches=2, batch_size=20)
        assert payload["experiment"] == "table1"
        assert len(payload["over_1_percent"]) == 2
        json.dumps(payload)

    def test_figure4_payload(self):
        payload = exp.experiment_figure4(num_iterations=5)
        assert len(payload["density_per_iteration"]) == 5

    def test_table5_triangle_cell(self):
        graph = paper_graph("WK")
        cell = exp.triangle_cell(graph, [uniform_batch(graph, 10, seed=5)])
        assert set(cell) == {"Ligra", "GB-Reset", "GraphBolt"}
        assert cell["Ligra"]["edges"] == cell["GB-Reset"]["edges"]
        assert cell["GraphBolt"]["edges"] < cell["Ligra"]["edges"]

    def test_table9_payload(self):
        payload = exp.experiment_table9(algorithms=["PR"], graphs=("WK",))
        assert payload["detail"]["PR|WK"]["overhead_percent"] > 0
        assert "TC|WK" in payload["detail"]

    def test_motivation_payload(self):
        payload = exp.experiment_motivation_tagging(
            graphs=("WK",), batch_sizes=(1,),
        )
        assert 0.0 < payload["detail"]["WK|1"] <= 1.0

    def test_render_table(self):
        payload = exp.experiment_figure4(num_iterations=3)
        text = exp.render_table(payload)
        assert "Figure 4" in text
        assert "changed" in text


class TestReducers:
    def test_registry_covers_the_paper_grids(self):
        assert set(exp.REDUCERS) == {"table5", "table7", "table8",
                                     "figure7", "tolerance", "drift"}

    def test_table5_cells_and_figure6_ratio(self):
        def run(engine, batch, edges, seconds):
            return ({"algorithm": "PR", "scale": "WK", "engine": engine,
                     "batch_size": batch}, edges, seconds)

        reduced = exp.reduce_table5(bench_payload(
            run("ligra", 10, 4000, 0.8), run("gbreset", 10, 2000, 0.4),
            run("graphbolt", 10, 500, 0.1),
            run("ligra", 100, 4000, 0.8), run("gbreset", 100, 2000, 0.4),
            run("graphbolt", 100, 1500, 0.2),
        ))
        assert reduced["cells"]["PR|WK|10"] == {
            "Ligra": {"seconds": 0.8, "edges": 4000},
            "GB-Reset": {"seconds": 0.4, "edges": 2000},
            "GraphBolt": {"seconds": 0.1, "edges": 500},
        }
        # Algo, Graph, Batch, 3 x seconds, xLigra, xGB-Reset, EdgeRatio
        assert reduced["rows"] == [
            ["PR", "WK", 10, 0.8, 0.4, 0.1, 8.0, 4.0, 0.25],
            ["PR", "WK", 100, 0.8, 0.4, 0.2, 4.0, 2.0, 0.75],
        ]
        assert "EdgeRatio" in exp.render_table(reduced)

    def test_table7_percent_of_gbreset(self):
        def run(engine, batch, edges):
            return ({"algorithm": "LP", "engine": engine,
                     "batch_size": batch}, edges, 0.5)

        reduced = exp.reduce_table7(bench_payload(
            run("gbreset", 10, 8000), run("graphbolt", 10, 1000),
            run("gbreset", 100, 8000), run("graphbolt", 100, 6000),
        ))
        assert reduced["headers"] == ["Algo", "10", "100"]
        assert reduced["rows"] == [
            ["LP", "1000 (12.50%)", "6000 (75.00%)"]]
        assert reduced["detail"]["LP|10"] == {
            "graphbolt_edges": 1000, "gbreset_edges": 8000,
            "percent": 12.5,
            "graphbolt_seconds": 0.5, "gbreset_seconds": 0.5,
        }

    def test_table8_lo_hi_columns(self):
        def run(graph, scenario, edges, seconds):
            return ({"scale": graph, "algorithm": "BP",
                     "scenario": scenario, "batch_size": 100},
                    edges, seconds)

        reduced = exp.reduce_table8(bench_payload(
            run("TT", "lo", 300, 0.01), run("TT", "hi", 9000, 0.09),
            run("FT", "lo", 500, 0.02), run("FT", "hi", 7000, 0.07),
        ))
        assert reduced["headers"] == ["Graph", "BP Lo", "BP Hi"]
        assert reduced["rows"] == [["TT", 0.01, 0.09], ["FT", 0.02, 0.07]]
        assert reduced["detail"]["FT|BP"] == {
            "lo": 0.02, "hi": 0.07, "lo_edges": 500, "hi_edges": 7000,
        }
        assert "(100 mutations)" in reduced["title"]

    def test_figure7_series_follow_batch_order(self):
        def run(engine, batch, edges, seconds):
            return ({"algorithm": "PR", "scale": "TT", "engine": engine,
                     "batch_size": batch}, edges, seconds)

        reduced = exp.reduce_figure7(bench_payload(
            run("gbreset", 1, 900, 0.3), run("gbreset", 10, 900, 0.3),
            run("graphbolt", 1, 20, 0.01), run("graphbolt", 10, 200, 0.05),
        ))
        assert reduced["batch_sizes"] == [1, 10]
        assert reduced["series"]["PR"] == {
            "GB-Reset": [0.3, 0.3], "GB-Reset-edges": [900, 900],
            "GraphBolt": [0.01, 0.05], "GraphBolt-edges": [20, 200],
        }
        assert reduced["rows"] == [
            ["PR", "GB-Reset", 0.3, 0.3],
            ["PR", "GraphBolt", 0.01, 0.05],
        ]
        assert "on TT" in reduced["title"]

    def test_drift_rows_follow_the_stream_length(self):
        def run(tau, length, error, batch_size=10, ratio=0.5):
            work = {"edge_work_vs_restart": ratio,
                    "dense_refinement_iterations": 1,
                    "max_rel_error_vs_exact": error,
                    "max_rel_error_vs_restart": error}
            return {"config": {"algorithm": {"name": "PR", "tolerance": tau},
                               "num_batches": length,
                               "batch_size": batch_size},
                    "work": work}

        # The table excludes PR at 1e-2 over 1000 batches.  At 1e-3 the
        # shorter stream crosses over first: the summary names its batch.
        reduced = exp.reduce_tolerance({"area": "drift", "runs": [
            run(1e-3, 100, 2e-8, ratio=1.1), run(1e-3, 100, 2e-8, 100),
            run(1e-3, 1000, 4e-8), run(1e-3, 1000, 4e-8, 100, 1.2),
            run(1e-2, 100, 3e-3), run(1e-2, 100, 3e-3, 100)]})
        assert reduced["experiment"] == "drift"
        assert [row[:3] for row in reduced["rows"]] == [
            ["PR", "1e-03", 100], ["PR", "1e-03", 1000],
            ["PR", "1e-02", 100]]
        assert [row[-3] for row in reduced["rows"]] == [
            "2.0e-08", "4.0e-08", "3.0e-03"]
        assert [row[-1] for row in reduced["rows"]] == [10, 100, ">100"]
        assert reduced["summary"]["PR"] == {"tolerance": 1e-3,
                                            "crossover_batch": 10}


class TestBenchMain:
    def test_runs_named_experiment(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "repro.bench.reporting.results_dir", lambda: str(tmp_path)
        )
        monkeypatch.setitem(
            EXPERIMENTS, "figure4",
            lambda: exp.experiment_figure4(num_iterations=3),
        )
        code = bench_main(["repro.bench", "figure4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert (tmp_path / "figure4.json").exists()

    def test_rejects_unknown_experiment(self, capsys):
        assert bench_main(["repro.bench", "nonexistent"]) == 2
        assert "unknown" in capsys.readouterr().out
