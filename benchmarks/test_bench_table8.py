"""Table 8: high- versus low-degree mutation workloads.

Paper claim: mutations targeting high-out-degree vertices (Hi) cost
more than mutations targeting low-degree vertices (Lo), because the
blast radius of the change is larger -- yet GraphBolt handles both
incrementally.
"""

from repro.bench.experiments import reduce_table8
from repro.bench.matrix import load_table, run_matrix
from repro.bench.reporting import save_results


def test_table8_hi_lo_workloads(run_experiment):
    payload = reduce_table8(
        run_experiment(run_matrix, load_table("table8")))
    save_results("table8", payload)

    for key, cell in payload["detail"].items():
        # Mutations landing on high-out-degree vertices fan out to more
        # edges than low-degree-targeted ones (deterministic edge
        # counts; wall-clock is recorded in the payload) -- far more
        # for the algorithms whose values stabilise within the window;
        # PR and CF refine most of the graph either way.
        assert cell["hi_edges"] > cell["lo_edges"], (key, cell)
        if key.split("|")[1] in ("LP", "BP", "CoEM"):
            assert cell["hi_edges"] > cell["lo_edges"] * 1.5, (key, cell)
