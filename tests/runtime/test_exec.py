"""Unit tests for the kernel layer and its owner accounting
(repro.runtime.exec) and the measured-makespan scaling model."""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BeliefPropagation,
    CoEM,
    CollaborativeFiltering,
    LabelPropagation,
)
from repro.core.aggregation import MinAggregation
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph.storage import MmapStore
from repro.runtime import exec as kernels
from repro.runtime.exec import PartitionedCSR, load_imbalance
from repro.runtime.metrics import EngineMetrics
from repro.runtime.parallel import PER_ITERATION_SPAN, lpt_makespan, project
from repro.testing.workloads import FUZZ_ALGORITHMS


def _chain_graph(num_vertices=12, fan=3):
    """A deliberately skewed graph: early vertices fan out widely."""
    edges = []
    for u in range(num_vertices):
        for k in range(1, 1 + max(fan - u // 3, 1)):
            edges.append((u, (u + k) % num_vertices))
    return CSRGraph.from_edges(edges, num_vertices=num_vertices)


# ----------------------------------------------------------------------
# PartitionedCSR
# ----------------------------------------------------------------------
class TestPartitionedCSR:
    def test_boundaries_cover_vertex_space(self):
        graph = _chain_graph()
        for shards in (1, 2, 3, 5, 64):
            partition = PartitionedCSR.compute(graph, shards)
            assert partition.boundaries.size == shards + 1
            assert partition.boundaries[0] == 0
            assert partition.boundaries[-1] == graph.num_vertices
            assert np.all(np.diff(partition.boundaries) >= 0)

    def test_degree_balanced_cuts(self):
        # One hub holding nearly all edges: the hub's shard should not
        # also absorb a proportional share of the remaining vertices.
        edges = [(0, v) for v in range(1, 40)]
        graph = CSRGraph.from_edges(edges, num_vertices=40)
        partition = PartitionedCSR.compute(graph, 2)
        # Vertex 0 carries ~half the total load on its own, so the
        # first shard stays small.
        assert partition.boundaries[1] < 20

    def test_shard_of_matches_boundaries(self):
        graph = _chain_graph()
        partition = PartitionedCSR.compute(graph, 4)
        ids = np.arange(graph.num_vertices, dtype=np.int64)
        owners = partition.shard_of(ids)
        for k in range(partition.boundaries.size - 1):
            lo, hi = partition.boundaries[k], partition.boundaries[k + 1]
            assert np.all(owners[lo:hi] == k)

    def test_for_graph_caches_on_graph(self):
        graph = _chain_graph()
        first = PartitionedCSR.for_graph(graph, 3)
        assert PartitionedCSR.for_graph(graph, 3) is first
        assert PartitionedCSR.for_graph(graph, 5) is not first

    @pytest.mark.parametrize("shards", [2, 7])
    def test_vertex_growth_recomputes_partition(self, shards):
        """A vertex-growing batch yields a new snapshot whose cached
        partition is its own degree-balanced split, not the old one's."""
        graph = _chain_graph()
        streaming = StreamingGraph(graph)
        PartitionedCSR.for_graph(graph, shards)
        top = graph.num_vertices
        grown = streaming.apply_batch(MutationBatch.from_edges(
            additions=[(0, top + 2), (top + 4, 1)],
            grow_to=top + 5)).new_graph
        assert grown.num_vertices == top + 5
        assert np.array_equal(
            PartitionedCSR.for_graph(grown, shards).boundaries,
            PartitionedCSR.compute(grown, shards).boundaries,
        )

    def test_empty_graph(self):
        graph = CSRGraph.from_edges([], num_vertices=0)
        partition = PartitionedCSR.compute(graph, 3)
        assert partition.boundaries.tolist() == [0, 0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedCSR(np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValueError):
            PartitionedCSR(np.array([0, 3, 2], dtype=np.int64))
        with pytest.raises(ValueError):
            PartitionedCSR.compute(_chain_graph(), 0)

    def test_repr(self):
        graph = _chain_graph()
        assert repr(PartitionedCSR.compute(graph, 2)) == (
            f"PartitionedCSR(P=2, V={graph.num_vertices})")


# ----------------------------------------------------------------------
# Owner accounting
# ----------------------------------------------------------------------
def _owner_loads(graph, shards, ids):
    """The load vector charging one unit per id to its owner block."""
    owners = PartitionedCSR.for_graph(graph, shards).shard_of(ids)
    return {str(k): float(n)
            for k, n in enumerate(np.bincount(owners)) if n}


class TestBackendEquivalence:
    """Accounting over P owner blocks changes the load split and
    nothing else: same arrays, same work counters as over one."""

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_gathers_identical(self, shards):
        graph = _chain_graph()
        vertices = np.array([0, 2, 3, 7, 11], dtype=np.int64)
        for gather, expect, owner_axis in (
            (kernels.gather_out, graph.out_edges_of(vertices), 0),
            # Pull gathers are owned by the *target*.
            (kernels.gather_in, graph.in_edges_of(vertices), 1),
        ):
            metrics = EngineMetrics(num_shards=shards)
            got = gather(graph, vertices, metrics)
            for e, g in zip(expect, got):
                assert np.array_equal(e, g), gather.__name__
            assert metrics.shard_loads == _owner_loads(
                graph, shards, expect[owner_axis])
        metrics = EngineMetrics(num_shards=shards)
        for e, g in zip(graph.all_edges(),
                        kernels.gather_all(graph, metrics)):
            assert np.array_equal(e, g)
        assert metrics.shard_loads == _owner_loads(
            graph, shards, graph.all_edges()[0])

    def test_gather_unsorted_fallback(self):
        """An unsorted vertex set (none of the engines produce one)
        keeps its edge order and still charges the owning blocks."""
        graph = _chain_graph()
        unsorted = np.array([7, 0, 11, 2], dtype=np.int64)
        expect = graph.out_edges_of(unsorted)
        metrics = EngineMetrics(num_shards=3)
        got = kernels.gather_out(graph, unsorted, metrics)
        for e, g in zip(expect, got):
            assert np.array_equal(e, g)
        assert metrics.edge_computations == expect[0].size
        assert metrics.shard_loads == _owner_loads(graph, 3, expect[0])

    def test_scatter_identical_and_shard_local(self):
        from repro.core.aggregation import SumAggregation
        graph = _chain_graph()
        agg = SumAggregation()
        src, dst, _ = graph.all_edges()
        contribs = (np.arange(dst.size, dtype=np.float64) + 0.25) / 3.0
        expect = np.zeros(graph.num_vertices)
        agg.scatter(expect, dst, contribs)
        got = np.zeros(graph.num_vertices)
        metrics = EngineMetrics(num_shards=4)
        kernels.scatter(graph, agg, got, dst, contribs, metrics)
        assert expect.tobytes() == got.tobytes()
        # Each contribution is charged where its destination lives.
        assert metrics.shard_loads == _owner_loads(graph, 4, dst)

    def test_edge_counting_matches_serial(self):
        graph = _chain_graph()
        vertices = np.array([0, 1, 5], dtype=np.int64)
        serial_m, sharded_m = EngineMetrics(), EngineMetrics(num_shards=3)
        kernels.gather_out(graph, vertices, serial_m)
        kernels.gather_out(graph, vertices, sharded_m)
        assert serial_m.edge_computations == sharded_m.edge_computations
        assert serial_m.shard_loads == {
            "0": sum(sharded_m.shard_loads.values())}
        # A whole-graph gather counts nothing but still measures loads.
        quiet = EngineMetrics(num_shards=3)
        kernels.gather_all(graph, quiet)
        assert quiet.edge_computations == 0
        assert sum(quiet.shard_loads.values()) == graph.num_edges

    def test_count_vertices_dense_and_sparse(self):
        graph = _chain_graph()
        metrics = EngineMetrics(num_shards=3)
        kernels.count_all_vertices(graph, metrics)
        assert metrics.vertex_computations == graph.num_vertices
        assert metrics.shard_loads == _owner_loads(
            graph, 3, np.arange(graph.num_vertices))
        sparse = EngineMetrics(num_shards=3)
        kernels.count_vertices(graph, np.array([0, 11]), sparse)
        assert sparse.vertex_computations == 2
        assert sparse.shard_loads == {"0": 1.0, "2": 1.0}

    def test_shard_count_is_not_a_counter(self):
        """``num_shards`` rides outside the ``fields`` arithmetic."""
        metrics = EngineMetrics(num_shards=3)
        assert metrics.snapshot() == EngineMetrics()
        assert metrics.delta_since(EngineMetrics()) == EngineMetrics()
        assert metrics.num_shards == 3
        with pytest.raises(ValueError):
            EngineMetrics(num_shards=0)


# ----------------------------------------------------------------------
# The dense sweep
# ----------------------------------------------------------------------
def _reference_sweep(graph, algorithm, values, metrics):
    """The sweep as the engines wrote it out before ``aggregate_all``:
    identity, ``np.repeat`` sources, a fancy row gather and
    ``Aggregation.scatter`` onto the live aggregate, charged as
    ``gather_all`` + ``scatter``."""
    aggregate = algorithm.identity_aggregate(graph.num_vertices)
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    graph.out_degrees())
    dst, weight = graph.out_targets, graph.out_weights
    kernels.gather_all(graph, metrics)    # for what it charges
    if metrics is not None:
        metrics.count_edges(src.size)
    if src.size:
        contributions = algorithm.contributions(graph, values[src], src,
                                                dst, weight)
        kernels.scatter(graph, algorithm.aggregation, aggregate, dst,
                        contributions, metrics)
    return aggregate


#: Vertex 0 has no in-edge, 6 no out-edge, 7 neither; (1, 2) is a
#: parallel edge; 4 has a self-loop.
_SWEEP_EDGES = [(0, 1), (0, 2), (1, 2), (1, 2), (2, 3), (3, 1), (3, 6),
                (4, 4), (4, 5), (5, 6), (5, 1), (2, 6)]
_SWEEP_GRAPHS = {
    "irregular": CSRGraph.from_edges(
        _SWEEP_EDGES, num_vertices=8,
        weights=[0.5 + 0.25 * k for k in range(len(_SWEEP_EDGES))],
    ),
    "no-edges": CSRGraph.from_edges([], num_vertices=5),
    "chain": _chain_graph(),
}

_SWEEP_ALGORITHMS = {
    **{key: profile.factory for key, profile in FUZZ_ALGORITHMS.items()},
    "collaborative-filtering": CollaborativeFiltering,
    "belief-propagation": BeliefPropagation,
}


class TestAggregateAll:
    @pytest.mark.parametrize("num_shards", [1, 3],
                             ids=["serial", "sharded:3"])
    @pytest.mark.parametrize("graph_key", sorted(_SWEEP_GRAPHS))
    @pytest.mark.parametrize("key", sorted(_SWEEP_ALGORITHMS))
    def test_equals_reference_sweep(self, key, graph_key, num_shards):
        graph = _SWEEP_GRAPHS[graph_key]
        algorithm = _SWEEP_ALGORITHMS[key]()
        values = algorithm.initial_values(graph)
        for negative_zero in (False, True):
            if negative_zero:
                values = values.copy()
                values[::2] = -0.0
            expect_m = EngineMetrics(num_shards=num_shards)
            got_m = EngineMetrics(num_shards=num_shards)
            with np.errstate(divide="ignore", invalid="ignore"):
                expect = _reference_sweep(graph, algorithm, values, expect_m)
                got = kernels.aggregate_all(graph, algorithm, values, got_m)
            assert np.array_equal(expect, got, equal_nan=True)
            assert np.array_equal(np.signbit(expect), np.signbit(got))
            # Every edge gathered and counted once.
            assert got_m.edge_computations == graph.num_edges
            assert got_m.edge_computations == expect_m.edge_computations
            assert got_m.shard_loads == expect_m.shard_loads
            # The sweep feeds the next iteration; keep going from it.
            values = np.asarray(algorithm.apply(
                graph, got, np.arange(graph.num_vertices, dtype=np.int64),
                values if algorithm.uses_previous_value else None,
            ), dtype=np.float64)

    def test_metrics_are_optional(self):
        graph = _SWEEP_GRAPHS["irregular"]
        algorithm = LabelPropagation()
        values = algorithm.initial_values(graph)
        assert np.array_equal(
            kernels.aggregate_all(graph, algorithm, values, None),
            _reference_sweep(graph, algorithm, values, None),
        )

    def test_malformed_contributions_are_named(self):
        class Transposed(CollaborativeFiltering):
            def contributions(self, graph, src_values, src, dst, weight):
                return super().contributions(
                    graph, src_values, src, dst, weight).T

        with pytest.raises(ValueError, match="contributions returned shape"):
            kernels.aggregate_all(
                _SWEEP_GRAPHS["irregular"], Transposed(),
                Transposed().initial_values(_SWEEP_GRAPHS["irregular"]),
                None,
            )


#: Every algorithm that declares ``edge_weighted``.
_DECLARING = {
    "label-propagation": LabelPropagation,
    "coem": CoEM,
}


def _snapshot(graph_key, storage, tmp_path):
    """``_SWEEP_GRAPHS[graph_key]`` as the engines may hold it."""
    graph = _SWEEP_GRAPHS[graph_key]
    if storage == "mmap":
        return MmapStore(str(tmp_path)).publish(graph)
    if storage == "grown":
        return StreamingGraph(graph).apply_batch(
            MutationBatch(grow_to=graph.num_vertices + 3)).new_graph
    return graph


class TestEdgeWeightedDeclaration:
    """``edge_weighted`` derives both ``contributions`` and the dense
    sweep; each is the hand-written form bit for bit."""

    def test_declared_by(self):
        declaring = {key for key, factory in _SWEEP_ALGORITHMS.items()
                     if factory().edge_weighted}
        assert declaring == set(_DECLARING)

    @pytest.mark.parametrize("storage", ["heap", "mmap", "grown"])
    @pytest.mark.parametrize("graph_key", sorted(_SWEEP_GRAPHS))
    @pytest.mark.parametrize("key", sorted(_DECLARING))
    def test_derived_contributions(self, key, graph_key, storage, tmp_path):
        graph = _snapshot(graph_key, storage, tmp_path)
        algorithm = _DECLARING[key]()
        src, dst, weight = graph.all_edges()
        src_values = algorithm.initial_values(graph)[src]
        src_values[::3] = -0.0
        expect = src_values * (weight if src_values.ndim == 1
                               else weight[:, None])
        got = algorithm.contributions(graph, src_values, src, dst, weight)
        assert got.shape == (src.size, *algorithm.aggregation_shape)
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("storage", ["heap", "mmap", "grown"])
    @pytest.mark.parametrize("graph_key", sorted(_SWEEP_GRAPHS))
    @pytest.mark.parametrize("key", sorted(_DECLARING))
    def test_product_equals_reference_sweep(self, key, graph_key, storage,
                                            tmp_path):
        graph = _snapshot(graph_key, storage, tmp_path)
        algorithm = _DECLARING[key]()
        values = algorithm.initial_values(graph)
        values[::2] = -values[::2]
        # On "irregular": target 2 starts from 0.0 + -0.0, 3 is inf,
        # 1 is -inf plus finite terms, 6 is inf - inf, 4 and 5 are nan.
        for row, special in ((0, -0.0), (2, np.inf), (3, -np.inf),
                             (4, np.nan)):
            values[row] = special
        for num_shards in (1, 3):
            expect_m = EngineMetrics(num_shards=num_shards)
            got_m = EngineMetrics(num_shards=num_shards)
            with np.errstate(invalid="ignore"):
                expect = _reference_sweep(graph, algorithm, values, expect_m)
                got = kernels.aggregate_all(graph, algorithm, values, got_m)
            assert got.shape == expect.shape and got.dtype == expect.dtype
            assert np.array_equal(expect, got, equal_nan=True)
            finite = ~np.isnan(expect)
            assert np.array_equal(np.signbit(expect)[finite],
                                  np.signbit(got)[finite])
            assert got_m.edge_computations == graph.num_edges
            assert got_m.edge_computations == expect_m.edge_computations
            assert got_m.shard_loads == expect_m.shard_loads
        # The result is the caller's to scatter into.
        assert got.flags.writeable and got.flags.c_contiguous
        assert not np.shares_memory(got, values)

    def test_non_sum_aggregation_takes_the_generic_path(self):
        """The product is a *sum* of products: a declaring algorithm
        over any other aggregation keeps the edge-order reduction."""
        class NarrowestScore(CoEM):
            def __init__(self):
                super().__init__()
                self.aggregation = MinAggregation()

        graph = _SWEEP_GRAPHS["irregular"]
        algorithm = NarrowestScore()
        values = algorithm.initial_values(graph)
        got = kernels.aggregate_all(graph, algorithm, values, None)
        assert np.array_equal(
            got, _reference_sweep(graph, algorithm, values, None))
        assert got[0] == np.inf and got[7] == np.inf    # no in-edge
        assert not np.array_equal(
            got, kernels.aggregate_all(graph, CoEM(), values, None))


def _csc_order_product(graph, values):
    """The product as the CSC arrays spell it: each target's in-edges,
    in ascending source order, added one by one onto 0.0."""
    targets = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                        graph.in_degrees())
    weights = graph.in_weights if values.ndim == 1 \
        else graph.in_weights[:, None]
    product = np.zeros(values.shape, dtype=np.float64)
    np.add.at(product, targets, weights * values[graph.in_sources])
    return product


def _in_direction_weight_sums(graph):
    """``in_weight_sums`` as it was summed over the CSC arrays."""
    sums = np.zeros(graph.num_vertices, dtype=np.float64)
    targets = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                        graph.in_degrees())
    np.add.at(sums, targets, graph.in_weights)
    return sums


_FINITE = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _weighted_streams(draw):
    """A weighted graph (parallel edges, self-loops, empty rows and
    isolated vertices all drawable) plus up to three growth and deletion
    batches to stream through it."""
    num_vertices = draw(st.integers(1, 24))
    ids = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(ids, ids, _FINITE), max_size=70))
    src, dst, weight = (np.array([edge[k] for edge in edges], dtype=dtype)
                        for k, dtype in ((0, np.int64), (1, np.int64),
                                         (2, np.float64)))
    graph = CSRGraph(num_vertices, src, dst, weight)
    return graph, draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


def _streamed(graph, num_batches, seed, store_root):
    """``graph`` placed on heap or an mmap store (``store_root``), after
    ``num_batches`` batches of deletions, additions and vertex growth."""
    if store_root is not None:
        graph = MmapStore(store_root).publish(graph)
    streaming = StreamingGraph(graph)
    rng = np.random.default_rng(seed)
    for _ in range(num_batches):
        current = streaming.graph
        grow_to = current.num_vertices + int(rng.integers(0, 3))
        src, dst, _ = current.all_edges()
        picked = rng.choice(src.size, size=min(3, src.size), replace=False)
        additions = rng.integers(0, grow_to, size=(3, 2)).tolist()
        streaming.apply_batch(MutationBatch.from_edges(
            additions=[tuple(pair) for pair in additions],
            deletions=[(int(src[i]), int(dst[i])) for i in picked],
            add_weights=rng.uniform(-4.0, 4.0, size=3).tolist(),
            grow_to=grow_to))
    return streaming.graph


class TestTransposedProduct:
    """The edge-weighted sweep reads the out-edge arrays as the CSC of
    the transpose; its bits are those of the CSC-order sums, and it
    leaves a deferred in-direction deferred."""

    @given(stream=_weighted_streams(), width=st.sampled_from([1, 4]),
           storage=st.sampled_from(["heap", "mmap"]),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_csc_order(self, stream, width, storage, data):
        graph, num_batches, seed = stream
        with tempfile.TemporaryDirectory() as root:
            graph = _streamed(graph, num_batches, seed,
                              root if storage == "mmap" else None)
            shape = (graph.num_vertices,) if width == 1 \
                else (graph.num_vertices, width)
            values = np.array(data.draw(st.lists(
                _FINITE, min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)))),
                dtype=np.float64).reshape(shape)
            algorithm = CoEM() if width == 1 \
                else LabelPropagation(num_labels=width)
            deferred = graph.in_deferred
            got = kernels.aggregate_all(graph, algorithm, values, None)
            sums = graph.in_weight_sums()
            # Neither read the in-edge arrays.
            assert graph.in_deferred == deferred
            assert got.shape == shape and got.dtype == np.float64
            assert got.tobytes() == _csc_order_product(graph,
                                                       values).tobytes()
            assert sums.tobytes() == _in_direction_weight_sums(
                graph).tobytes()


class TestDenseSweepEndToEnd:
    """An 8-batch stream ends where it did before the engines shared one
    sweep.  The literals were recorded with the e2e generator's
    ``generate(13, 200, 8, seed=5)``; label propagation's moved once
    since, when the sparse/dense switch began pricing per edge: its
    iteration 2 goes dense, and a rebuild rounds unlike a splice.
    Collaborative filtering's history bytes fell once (10 178 784 ->
    10 113 248), when a record half began keeping its whole array where
    that is smaller than the changed rows with their ids.  Both
    histories then grew (LP 4 186 704 -> 6 258 720, CF 10 113 248 ->
    14 667 152) when a densely refined iteration's record became its
    two arrays whatever rows changed; values and edge counts held.
    LP's values moved again (its history 6 258 720 -> 6 258 288, edges
    held) when a row that moved by τ or less began keeping, in the
    record, the value its out-neighbours absorbed."""

    PINS = {
        "label-propagation": (LabelPropagation, 0xEE1A48C0, 4_572_534,
                              6_258_288),
        "collaborative-filtering": (CollaborativeFiltering, 0x88A5BA48,
                                    4_224_398, 14_667_152),
    }

    @staticmethod
    def _stream():
        path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                            "benchmarks", "e2e", "inputs.py")
        spec = importlib.util.spec_from_file_location("_e2e_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = inputs    # its dataclass looks itself up
        spec.loader.exec_module(inputs)
        return inputs.generate(13, 200, 8, seed=5)

    @staticmethod
    def _run(factory, data):
        engine = GraphBoltEngine(factory(), num_iterations=10)
        engine.run(CSRGraph(data.num_vertices, data.src, data.dst,
                            data.weight))
        for batch in data.batches:
            engine.apply_mutations(batch)
        return (zlib.crc32(np.ascontiguousarray(engine.values).tobytes()),
                engine.metrics.edge_computations, engine.history.nbytes)

    @pytest.mark.parametrize("key", sorted(PINS))
    def test_stream_ends_on_the_parent_commits_state(self, key):
        factory, crc, edges, history_bytes = self.PINS[key]
        data = self._stream()
        assert self._run(factory, data) == (crc, edges, history_bytes)


# ----------------------------------------------------------------------
# Makespan model
# ----------------------------------------------------------------------
class TestMakespan:
    def test_lpt_basics(self):
        assert lpt_makespan([], 4) == 0.0
        assert lpt_makespan([5, 3, 2], 1) == 10.0
        assert lpt_makespan([5, 3, 2], 8) == 5.0
        # Two cores: LPT puts 5 alone, 3+2 together.
        assert lpt_makespan([5, 3, 2], 2) == 5.0
        with pytest.raises(ValueError):
            lpt_makespan([1.0], 0)

    def test_makespan_monotone_and_calibrated(self):
        loads = [1000 * load for load in (400, 350, 300, 150)]
        measured = 2.5
        projections = [
            project(loads, 3, measured, cores) for cores in (1, 2, 4, 16)
        ]
        assert projections[0] == pytest.approx(measured)
        for slower, faster in zip(projections, projections[1:]):
            assert faster <= slower + 1e-12
        # The floor is the largest shard plus the span: more cores than
        # shards cannot help further.
        span = 3 * PER_ITERATION_SPAN
        assert projections[-1] == pytest.approx(
            (max(loads) + span) * measured / (sum(loads) + span))
        assert project(loads, 3, measured, 64) == pytest.approx(
            projections[-1])

    def test_imbalance(self):
        metrics = EngineMetrics()
        metrics.count_shard_load("0", 30)
        metrics.count_shard_load("1", 10)
        assert load_imbalance(metrics.shard_loads) == pytest.approx(1.5)
        assert load_imbalance({"0": 30.0, "1": 10.0}) == pytest.approx(1.5)
        assert load_imbalance({}) == 1.0
        assert load_imbalance([4.0, 4.0, 4.0]) == 1.0
