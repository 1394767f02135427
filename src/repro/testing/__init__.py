"""Cross-engine differential fuzzing and equivalence checking.

The paper validates every experiment by comparing incremental results
against a from-scratch synchronous run on the mutated graph (section
5.1); Table 1 quantifies the silent corruption that appears without that
discipline.  This package mechanises the check as a subsystem:

- :mod:`repro.testing.workloads` -- deterministic seeded generation of
  graphs, algorithm configs, and adversarial mutation schedules;
- :mod:`repro.testing.oracle` -- drives one workload through every
  applicable engine (GraphBolt refinement, GB-Reset restart, Ligra
  restart, KickStarter, mini differential dataflow) and checks per-batch
  BSP-equivalence plus work-metric sanity;
- :mod:`repro.testing.shrinker` -- minimises a failing workload to the
  smallest graph and shortest mutation prefix that still diverge, and
  renders it as a ready-to-paste pytest test;
- :mod:`repro.testing.fuzz` -- the ``repro fuzz`` campaign driver;
- :mod:`repro.testing.faults` -- deterministic failpoints (seeded crash
  and transient-fault injection at named sites across the serving and
  recovery stack);
- :mod:`repro.testing.crash` -- the ``repro fuzz --crash`` kill-and-
  recover fuzzer: one scenario table, one driver.  Imported lazily
  (``from repro.testing import crash``), *not* re-exported here: it
  imports the serving stack, which itself imports
  :mod:`repro.testing.faults`.

Import from the submodules; only the campaign entry points the CLI
dispatches to are re-exported here.
"""

from repro.testing.fuzz import parse_budget, run_fuzz

__all__ = ["parse_budget", "run_fuzz"]
