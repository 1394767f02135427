"""Table 6: core scaling on the YH stand-in (measured-makespan model).

Paper claim: increasing cores from 32 to 96 reduces everyone's time,
but GraphBolt's *speedup over GB-Reset shrinks*, because GB-Reset has
far more parallelisable work while GraphBolt's small refinement is
span-bound.  Each engine's work is accounted over 96 owner blocks; the
projection schedules that *measured* per-shard load vector onto p cores
(LPT makespan, documented in DESIGN.md) and reports the vector's
load-imbalance factor.
"""

import json
import zlib

from repro.bench.experiments import experiment_table6
from repro.bench.reporting import save_results


#: CRC of each algorithm's three 96-entry load vectors as the sharded
#: execution backend measured them at the commit before it was folded
#: into the owner accounting.  BP's moved with the priced sparse/dense
#: switch: GraphBolt's total went from 6 510 950 to 5 683 673, and
#: Ligra's and GB-Reset's vectors are unchanged.  It moved again when
#: GB-Reset's step took the same priced switch: GB-Reset's total went
#: from 10 765 580 (every iteration dense) to 9 166 394, and GraphBolt's,
#: through its tracked initial run, to 4 883 921; Ligra's is unchanged.
#: It moved again when BP's change predicate became relative, at τ =
#: 1e-2: GB-Reset runs every iteration dense again (10 765 580) and
#: GraphBolt's total went to 5 573 400.
SHARD_LOAD_PINS = {"PR": 0x0E7BEC67, "LP": 0xE1514A84, "BP": 0x84EE6A95}


def test_table6_core_scaling(run_experiment):
    payload = run_experiment(
        experiment_table6, algorithms=["PR", "LP", "BP"]
    )
    save_results("table6", payload)

    assert payload["num_shards"] == 96
    detail = payload["detail"]
    for algo in ("PR", "LP", "BP"):
        at32 = detail[f"{algo}|32"]
        at96 = detail[f"{algo}|96"]
        assert at32["shard_loads"] == at96["shard_loads"]
        assert zlib.crc32(json.dumps(
            at96["shard_loads"], sort_keys=True,
        ).encode()) == SHARD_LOAD_PINS[algo], algo
        # More cores help every engine...
        for engine in ("Ligra", "GB-Reset", "GraphBolt"):
            assert at96["projected"][engine] <= at32["projected"][engine]
        # ...but GraphBolt's relative advantage shrinks (or at best
        # stays flat) as parallelism grows.
        assert at96["x_gbreset"] <= at32["x_gbreset"] * 1.05, algo
        # The projection derives from measured shard loads: every
        # engine must have recorded a populated vector with a finite
        # imbalance factor.
        for engine in ("Ligra", "GB-Reset", "GraphBolt"):
            assert at96["shard_loads"][engine], engine
            assert at96["imbalance"][engine] >= 1.0, engine
