"""Regenerate the bespoke experiments: ``python -m repro.bench [names...]``.

Runs each ``experiment_*`` driver, prints its paper-style table, and
stores the JSON payload under ``benchmarks/results/`` (consumed when
updating EXPERIMENTS.md).  With no arguments all of them run; otherwise
pass experiment names (e.g. ``table9 figure8``).  The engine grids --
Table 5 + Figure 6, Tables 6/7/8, Figure 7 -- are run tables instead:
``python -m repro experiment --matrix table5``.
"""

from __future__ import annotations

import sys
import time

from repro.bench import experiments as exp
from repro.bench.reporting import save_results
from repro.obs.registry import get_registry

EXPERIMENTS = {
    "table1": exp.experiment_table1,
    "figure4": exp.experiment_figure4,
    "figure8": exp.experiment_figure8,
    "figure9": exp.experiment_figure9,
    "table9": exp.experiment_table9,
    "motivation_tagging": exp.experiment_motivation_tagging,
    "ablation_pruning": exp.experiment_ablation_pruning,
    "ablation_tagreset": exp.experiment_ablation_tagreset,
}


def main(argv) -> int:
    names = argv[1:] if len(argv) > 1 else list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from "
              f"{sorted(EXPERIMENTS)}")
        return 2
    for name in names:
        start = time.perf_counter()
        payload = EXPERIMENTS[name]()
        elapsed = time.perf_counter() - start
        path = save_results(name, payload)
        print(exp.render_table(payload))
        print(f"[{name}: {elapsed:.1f}s -> {path}]")
        print()
    # Everything the runs fed into the process-wide registry --
    # counters, gauges, latency histograms -- lands next to the tables.
    registry_path = save_results("metrics_registry",
                                 get_registry().to_json())
    print(f"[metrics registry -> {registry_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
