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
  recover fuzzer.  Imported lazily (``from repro.testing import
  crash``), *not* re-exported here: it imports the serving stack, which
  itself imports :mod:`repro.testing.faults`.
"""

from repro.testing.faults import (
    KNOWN_SITES,
    FailpointRegistry,
    InjectedCrash,
    InjectedFault,
    get_failpoints,
    scoped_failpoints,
    set_failpoints,
)
from repro.testing.fuzz import FuzzOutcome, parse_budget, run_fuzz
from repro.testing.oracle import (
    REFERENCE_ENGINE,
    Divergence,
    WorkloadReport,
    available_engines,
    build_runner,
    check_workload,
    compare_snapshots,
)
from repro.testing.shrinker import ShrinkResult, shrink, to_pytest
from repro.testing.workloads import (
    FUZZ_ALGORITHMS,
    AlgorithmProfile,
    Workload,
    generate_workload,
)

__all__ = [
    "AlgorithmProfile",
    "Divergence",
    "FUZZ_ALGORITHMS",
    "FailpointRegistry",
    "FuzzOutcome",
    "InjectedCrash",
    "InjectedFault",
    "KNOWN_SITES",
    "REFERENCE_ENGINE",
    "ShrinkResult",
    "Workload",
    "WorkloadReport",
    "available_engines",
    "build_runner",
    "check_workload",
    "compare_snapshots",
    "generate_workload",
    "get_failpoints",
    "parse_budget",
    "run_fuzz",
    "scoped_failpoints",
    "set_failpoints",
    "shrink",
    "to_pytest",
]
