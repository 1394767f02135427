"""The one propagation step, and the one switch in front of it.

:func:`repro.ligra.delta.propagate` is every engine's iteration: a
GB-Reset restart or hybrid forward step with no batch, a refinement
iteration with the batch's edges spliced in.  Sparse or dense is only a
price: both must build the aggregate a dense sweep builds from the new
values -- exactly for a min/max re-evaluation, within the oracle
tolerance for a sum -- and both engines must price one frontier alike.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import REGISTRY
from repro.core.engine import GraphBoltEngine
from repro.core.refinement import _Refiner
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import DeltaEngine, DeltaState, propagate
from repro.ligra.frontier import union_ids
from repro.runtime.exec import aggregate_all
from repro.runtime.metrics import EngineMetrics
from tests.conftest import make_random_batch

#: PageRank, vector-valued LP, BP's log-space product and SSSP's min.
ALGORITHMS = ["pagerank", "label-propagation", "belief-propagation", "sssp"]


def _values(algorithm, num_vertices, rng):
    """Values of the algorithm's shape and domain: positive (BP takes
    logs), with unreached vertices for SSSP."""
    shape = (num_vertices, *algorithm.aggregation_shape)
    values = rng.uniform(0.1, 1.0, size=shape)
    if algorithm.name == "sssp":
        values[rng.random(num_vertices) < 0.3] = np.inf
    return values


@pytest.mark.parametrize("retract", [False, True], ids=["delta", "rp"])
@pytest.mark.parametrize("name", ALGORITHMS)
class TestSparseEqualsDense:

    @given(seed=st.integers(0, 2**32 - 1),
           num_vertices=st.integers(1, 24),
           edge_factor=st.integers(0, 4),
           refining=st.booleans(),
           moved=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_step(self, name, retract, seed, num_vertices, edge_factor,
                  refining, moved):
        rng = np.random.default_rng(seed)
        algorithm = REGISTRY[name].factory()
        pairs = rng.integers(0, num_vertices,
                             size=(edge_factor * num_vertices, 2))
        graph = CSRGraph.from_edges(
            [tuple(pair) for pair in pairs.tolist()],
            num_vertices=num_vertices,
            weights=rng.uniform(0.5, 2.0, size=len(pairs)).tolist())
        # The old run: an aggregate that absorbed ``absorbed`` exactly.
        absorbed = _values(algorithm, num_vertices, rng)
        aggregate = aggregate_all(graph, algorithm, absorbed, None)
        aggregate.flags.writeable = False
        old = SimpleNamespace(g=aggregate, c_prev=absorbed)

        batch = None
        if refining:
            batch = StreamingGraph(graph).apply_batch(make_random_batch(
                graph, rng, int(rng.integers(0, 6)),
                int(rng.integers(0, 6))))
            graph = batch.new_graph
        values = absorbed.copy()
        changed = np.flatnonzero(rng.random(num_vertices) < moved)
        values[changed] = _values(algorithm, changed.size, rng)
        sources = changed
        if batch is not None:
            sources = union_ids(num_vertices, changed,
                                algorithm.contribution_params_changed(batch))

        sparse, touched = propagate(algorithm, graph, values, sources, old,
                                    EngineMetrics(), dense=False,
                                    batch=batch, retract=retract)
        dense, everything = propagate(algorithm, graph, values, sources,
                                      old, EngineMetrics(), dense=True,
                                      batch=batch, retract=retract)
        assert everything is None
        assert dense.tobytes() == aggregate_all(graph, algorithm, values,
                                                None).tobytes()
        assert touched.tolist() == union_ids(num_vertices,
                                             touched).tolist()
        # Outside ``touched`` the step kept the old aggregate's rows.
        untouched = np.ones(num_vertices, dtype=bool)
        untouched[touched] = False
        assert sparse[untouched].tobytes() == aggregate[untouched].tobytes()
        if algorithm.aggregation.decomposable:
            tolerance = REGISTRY[name].tolerance
            assert np.allclose(sparse, dense, rtol=tolerance,
                               atol=tolerance)
        else:
            assert sparse.tobytes() == dense.tobytes()


class TestOneSwitch:
    """A GB-Reset step and a refinement iteration decide sparse or dense
    alike for the same graph and sources (an empty batch, so the price
    is the sources' out-edges alone)."""

    @pytest.mark.parametrize("name", ["pagerank", "label-propagation",
                                      "coem", "sssp"])
    def test_same_decision(self, name):
        spec = REGISTRY[name]
        graph = rmat(scale=9, edge_factor=8, seed=4, weighted=True)
        engine = GraphBoltEngine(spec.factory(), num_iterations=2)
        engine.run(graph)
        mutation = StreamingGraph(graph).apply_batch(MutationBatch.empty())
        refiner = _Refiner(engine.algorithm, mutation, engine.history,
                           EngineMetrics(), "delta")
        assert refiner.batch_edges == 0 and not refiner.contrib_params.size
        # The fewest-edged sources until their out-edges cover the
        # fraction: around every algorithm's break-even.
        order = np.argsort(graph.out_degrees(), kind="stable")
        reach = np.cumsum(graph.out_degrees()[order])
        decisions = []
        for fraction in (0.001, 0.005, 0.02, 0.1, 0.2, 0.3, 0.4, 0.6):
            count = int(np.searchsorted(reach, fraction * reach[-1])) + 1
            sources = np.sort(order[:count])
            metrics = EngineMetrics()
            algorithm = spec.factory()
            values = algorithm.initial_values(graph)
            state = DeltaState(values=values, prev_values=values.copy(),
                               aggregate=aggregate_all(graph, algorithm,
                                                       values, None),
                               frontier=sources, iteration=1)
            DeltaEngine(algorithm, metrics).step(graph, state)
            # A dense step sweeps every edge; a sparse one gathers the
            # sources' out-edges (a pull then re-reads its targets').
            restart_dense = metrics.edge_computations == graph.num_edges
            assert restart_dense == refiner._dense_preferred(sources)
            decisions.append(restart_dense)
        assert any(decisions) and not all(decisions)
