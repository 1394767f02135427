"""Table 7: edge computations on the YH stand-in.

Paper claim: on the largest graph GraphBolt performs a small fraction
of GB-Reset's edge computations, and the fraction grows with the
mutation batch size.
"""

from repro.bench.experiments import reduce_table7
from repro.bench.matrix import load_table, run_matrix
from repro.bench.reporting import save_results


def test_table7_yh_edge_computations(run_experiment):
    table = load_table("table7")
    payload = reduce_table7(run_experiment(run_matrix, table))
    save_results("table7", payload)

    detail = payload["detail"]
    batch_sizes = table.axes["batch_size"]
    for algo in table.axes["algorithm"]:
        percents = [
            detail[f"{algo}|{batch}"]["percent"] for batch in batch_sizes
        ]
        # Never more work than GB-Reset; more mutations -> more work.
        assert all(p <= 100.001 for p in percents), (algo, percents)
        assert percents[0] <= percents[-1] * 1.05, (algo, percents)
    # The stabilising algorithms see large savings at small batches.
    assert detail["LP|10"]["percent"] < 50
