"""A miniature Differential Dataflow (McSherry et al., CIDR'13).

The paper's Figure 8/9 comparator: a *general-purpose* incremental
engine that represents data as multisets of records evolving through
timestamped diffs ``(record, time, +/-k)``, with differential operators
(map/filter/join/reduce/...) that compute directly over diffs.  Graph
computations are expressed by joining edge tuples with rank/distance
tuples and grouping at destination vertices -- generic, elegant, and
(as the paper measures) slower than a graph-specialised engine, because
every vertex value lives in hash-indexed traces rather than dense
arrays, and every operator materialises its own state.

Scope note (honest simplification, documented in DESIGN.md): timestamps
here are the totally-ordered product (epoch, inner-step) rather than
Naiad's partially-ordered lattice -- sufficient for the single-loop,
epoch-serial programs these benchmarks run, and preserving the
observable behaviour the paper compares against (diff-driven work
proportional to affected keys, high per-update variance).
"""

from repro.dataflow.operators import Dataflow
from repro.dataflow.timestamps import Timestamp

__all__ = ["Dataflow", "Timestamp"]
