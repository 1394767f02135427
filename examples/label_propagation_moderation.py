#!/usr/bin/env python
"""Trust & safety: streaming label propagation with BSP guarantees.

A moderation team scores accounts by propagating labels from a small
set of reviewed accounts (seeds) across the follow graph.  This is the
paper's flagship example of why BSP semantics matter: naively reusing
scores across graph changes drifts further from the truth with every
batch (Table 1), silently corrupting downstream decisions, while
GraphBolt's refinement keeps every score exactly what a full re-run
would produce.

Run:  python examples/label_propagation_moderation.py
"""

import numpy as np

from repro import GraphBoltEngine, LabelPropagation, LigraEngine, rmat
from repro.bench.harness import ENGINES
from repro.bench.workloads import uniform_batch
from repro.runtime.validation import count_exceeding

NUM_LABELS = 3  # e.g. {benign, spam, bot}
ITERATIONS = 10


def main():
    print("=== Account scoring with streaming label propagation ===\n")
    follow_graph = rmat(scale=11, edge_factor=10, seed=5, weighted=True)
    print(f"follow graph: {follow_graph.num_vertices} accounts, "
          f"{follow_graph.num_edges} follows")

    def fresh_algorithm():
        return LabelPropagation(num_labels=NUM_LABELS, seed_every=10)

    seeds = fresh_algorithm().seed_mask(
        np.arange(follow_graph.num_vertices)
    )
    print(f"reviewed seed accounts: {int(seeds.sum())}\n")

    refined = GraphBoltEngine(fresh_algorithm(), num_iterations=ITERATIONS)
    refined.run(follow_graph)
    naive = ENGINES["naive"](fresh_algorithm, ITERATIONS)
    naive.setup(follow_graph)

    print(f"{'batch':>6} {'naive >1% wrong':>16} "
          f"{'graphbolt >1% wrong':>20}")
    for index in range(5):
        batch = uniform_batch(refined.graph, 200, seed=100 + index)
        refined_scores = refined.apply_mutations(batch)
        naive_scores = naive.apply(batch)
        truth = LigraEngine(fresh_algorithm()).run(refined.graph,
                                                   ITERATIONS)
        naive_wrong = count_exceeding(naive_scores, truth, 0.01)
        refined_wrong = count_exceeding(refined_scores, truth, 0.01)
        print(f"{index:>6} {naive_wrong:>16} {refined_wrong:>20}")

    labels = np.argmax(refined.values, axis=1)
    counts = np.bincount(labels, minlength=NUM_LABELS)
    print("\nfinal label census (argmax):",
          {f"label{i}": int(c) for i, c in enumerate(counts)})
    print("\nThe naive engine's error keeps compounding (paper Table 1); "
          "GraphBolt stays exact.")


if __name__ == "__main__":
    main()
