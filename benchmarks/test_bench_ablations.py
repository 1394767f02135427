"""Ablations of GraphBolt's own design knobs (DESIGN.md A1/A3).

- Pruning horizon: tracking fewer iterations trades refinement reach
  (more hybrid forward work) for memory; memory must grow monotonically
  with the horizon and horizon 0 must degenerate to pure forward
  execution.
"""

from repro.bench.experiments import experiment_ablation_pruning
from repro.bench.reporting import save_results


def test_ablation_pruning_horizon(run_experiment):
    payload = run_experiment(experiment_ablation_pruning)
    save_results("ablation_pruning", payload)

    rows = payload["rows"]
    bytes_by_horizon = [(row[0], row[2]) for row in rows]
    for (h1, b1), (h2, b2) in zip(bytes_by_horizon, bytes_by_horizon[1:]):
        assert b2 >= b1, f"memory must grow with horizon: {h1}->{h2}"
    # Horizon 0 stores nothing and refines nothing.
    first = rows[0]
    assert first[0] == 0 and first[2] == 0 and first[4] == 0
    # Full horizon leaves nothing for hybrid execution.
    assert rows[-1][5] == 0


def test_ablation_tagreset_corrector(run_experiment):
    """Correctors head to head (paper sections 1/2.2): the GraphIn-style
    tag+recompute corrector tags the majority of the graph and performs
    orders of magnitude more edge work than dependency-driven
    refinement, while both stay BSP-correct."""
    from repro.bench.experiments import experiment_ablation_tagreset

    payload = run_experiment(experiment_ablation_tagreset)
    save_results("ablation_tagreset", payload)

    detail = payload["detail"]
    for cell in detail.values():
        assert cell["tagged_fraction"] > 0.5
        assert cell["edge_ratio"] > 5
    # The gap is largest for the smallest batch.
    assert detail["1"]["edge_ratio"] > detail["100"]["edge_ratio"]
