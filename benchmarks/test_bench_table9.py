"""Table 9: memory overhead of dependency tracking.

Paper claims: tracked aggregation values cost a modest fraction of
baseline engine state for the scalar/vector algorithms (O(V) per
tracked iteration, shrunk by vertical pruning), rising for CF (larger
aggregation values) and TC (retains the pre-mutation structure,
approaching 2x).
"""

from repro.bench.experiments import experiment_table9
from repro.bench.reporting import save_results


def test_table9_memory_overhead(run_experiment):
    payload = run_experiment(experiment_table9, graphs=("WK", "TW", "FT"))
    save_results("table9", payload)

    detail = payload["detail"]
    for key, cell in detail.items():
        algo = key.split("|")[0]
        if algo == "TC":
            # Retaining the old CSR/CSC roughly doubles memory.
            assert 50 <= cell["overhead_percent"] <= 120, key
        else:
            assert cell["overhead_percent"] > 0, key

    # CF tracks K*(K+1)-wide aggregation values against K-wide vertex
    # values, so its overhead tops the simple-aggregation algorithms'.
    for graph in ("WK", "TW", "FT"):
        cf = detail[f"CF|{graph}"]["overhead_percent"]
        pr = detail[f"PR|{graph}"]["overhead_percent"]
        assert cf > pr, (graph, cf, pr)
