"""GraphBolt reproduction: dependency-driven synchronous processing of
streaming graphs (Mariappan & Vora, EuroSys 2019).

Quickstart::

    from repro import GraphBoltEngine, MutationBatch, PageRank, rmat

    graph = rmat(scale=10, edge_factor=8, seed=1)
    engine = GraphBoltEngine(PageRank(), num_iterations=10)
    ranks = engine.run(graph)

    batch = MutationBatch.from_edges(additions=[(0, 5), (7, 3)])
    ranks = engine.apply_mutations(batch)   # incremental, BSP-exact

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table and figure.
"""

from repro.algorithms import (
    Adsorption,
    BFS,
    BeliefPropagation,
    CoEM,
    CollaborativeFiltering,
    ConnectedComponents,
    IncrementalTriangleCounting,
    KatzCentrality,
    LabelPropagation,
    PageRank,
    PersonalizedPageRank,
    SSSP,
    SSWP,
    WeightedPageRank,
    triangle_counts,
)
from repro.core import (
    DependencyHistory,
    GraphBoltEngine,
    IncrementalAlgorithm,
)
from repro.core.aggregation import (
    Aggregation,
    LogProductAggregation,
    MaxAggregation,
    MinAggregation,
    ProductAggregation,
    SumAggregation,
)
from repro.graph import (
    CSRGraph,
    MutationBatch,
    SlidingWindowStream,
    StreamingGraph,
)
from repro.graph.generators import (
    bipartite_graph,
    erdos_renyi,
    paper_graph,
    rmat,
)
from repro.ligra import DeltaEngine, LigraEngine
from repro.obs import MetricsRegistry, Tracer, get_registry
from repro.runtime.metrics import EngineMetrics

__version__ = "1.0.0"

__all__ = [
    "Adsorption",
    "Aggregation",
    "BFS",
    "BeliefPropagation",
    "CSRGraph",
    "CoEM",
    "CollaborativeFiltering",
    "ConnectedComponents",
    "DeltaEngine",
    "DependencyHistory",
    "EngineMetrics",
    "GraphBoltEngine",
    "IncrementalAlgorithm",
    "IncrementalTriangleCounting",
    "KatzCentrality",
    "LabelPropagation",
    "LigraEngine",
    "LogProductAggregation",
    "MaxAggregation",
    "MetricsRegistry",
    "MinAggregation",
    "MutationBatch",
    "PageRank",
    "PersonalizedPageRank",
    "ProductAggregation",
    "SSSP",
    "SSWP",
    "SlidingWindowStream",
    "StreamingGraph",
    "SumAggregation",
    "Tracer",
    "WeightedPageRank",
    "bipartite_graph",
    "erdos_renyi",
    "get_registry",
    "paper_graph",
    "rmat",
    "triangle_counts",
]
