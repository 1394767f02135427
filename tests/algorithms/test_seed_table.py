"""LP's and CoEM's seed clamp and BP's priors: derived once per vertex
id, applied by gathering from the table, byte-equal to the hash
formula."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import BeliefPropagation, CoEM, LabelPropagation
from repro.algorithms import belief_propagation as bp_module
from repro.algorithms import coem as coem_module
from repro.algorithms import label_propagation as lp_module
from repro.algorithms._hashing import SeedTable, hash_ids, uniform_from_ids
from repro.core.engine import GraphBoltEngine
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch
from tests.conftest import label_mass, make_random_batch

ALGORITHMS = {
    "label_propagation": lambda: LabelPropagation(num_labels=5,
                                                  seed_every=4),
    "coem": lambda: CoEM(seed_every=4),
}


def formula(algorithm, graph, aggregate, vertices):
    """``apply`` as the hash formula writes it: the unclamped rows,
    then every seed among ``vertices`` set from its own id's hash."""
    if isinstance(algorithm, LabelPropagation):
        totals = aggregate.sum(axis=1, keepdims=True)
        safe = totals > 1e-9
        with np.errstate(invalid="ignore"):
            expect = np.where(safe, aggregate / np.where(safe, totals, 1.0),
                              1.0 / algorithm.num_labels)
        seeds = algorithm.seed_mask(vertices)
        expect[seeds] = 0.0
        expect[np.flatnonzero(seeds),
               algorithm.seed_labels(vertices[seeds])] = 1.0
        return expect
    normalisers = graph.in_weight_sums()[vertices]
    safe = normalisers > 0
    expect = np.where(safe, aggregate / np.where(safe, normalisers, 1.0),
                      algorithm.default_score)
    seeds = algorithm.seed_mask(vertices)
    expect[seeds] = algorithm.seed_scores(vertices[seeds])
    return expect


def aggregate_of(algorithm, vertices, seed):
    if isinstance(algorithm, LabelPropagation):
        # The planted rows (zero, vanishing, NaN, inf) come first.
        return label_mass(max(vertices.size, 6), algorithm.num_labels,
                          seed=seed)[:vertices.size]
    return np.random.default_rng(seed).random(vertices.size) * 3.0


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestApplyIsTheFormula:
    def check(self, algorithm, graph, vertices, seed):
        aggregate = aggregate_of(algorithm, vertices, seed)
        before = aggregate.tobytes()
        with np.errstate(invalid="ignore"):
            got = algorithm.apply(graph, aggregate, vertices)
        expect = formula(algorithm, graph, aggregate, vertices)
        assert got.tobytes() == expect.tobytes()
        assert aggregate.tobytes() == before

    def test_every_vertex(self, name):
        graph = rmat(scale=9, edge_factor=4, seed=3, weighted=True)
        self.check(ALGORITHMS[name](), graph,
                   np.arange(graph.num_vertices, dtype=np.int64), seed=1)

    def test_random_sparse_ids(self, name):
        graph = rmat(scale=9, edge_factor=4, seed=3, weighted=True)
        algorithm = ALGORITHMS[name]()
        rng = np.random.default_rng(5)
        for size in (1, 7, 60, 300):
            vertices = np.sort(rng.choice(graph.num_vertices, size,
                                          replace=False)).astype(np.int64)
            self.check(algorithm, graph, vertices, seed=size)

    def test_ids_past_the_cached_prefix(self, name):
        small = rmat(scale=6, edge_factor=4, seed=3, weighted=True)
        large = rmat(scale=9, edge_factor=4, seed=3, weighted=True)
        algorithm = ALGORITHMS[name]()
        self.check(algorithm, small,
                   np.arange(small.num_vertices, dtype=np.int64), seed=2)
        past = np.arange(small.num_vertices - 3, large.num_vertices, 7,
                         dtype=np.int64)
        self.check(algorithm, large, past, seed=3)
        # The extended table still answers the prefix it had.
        self.check(algorithm, small, np.arange(small.num_vertices,
                                               dtype=np.int64), seed=4)

    def test_initial_values_read_the_table(self, name):
        graph = rmat(scale=7, edge_factor=4, seed=1, weighted=True)
        algorithm = ALGORITHMS[name]()
        # A table extended past this graph by an earlier, larger one.
        algorithm.apply(None if name == "label_propagation" else
                        rmat(scale=8, edge_factor=4, seed=1, weighted=True),
                        aggregate_of(algorithm, np.arange(3), 0),
                        np.array([0, 1, 255]))
        values = algorithm.initial_values(graph)
        ids = np.arange(graph.num_vertices)
        seeds = algorithm.seed_mask(ids)
        if name == "label_propagation":
            expect = np.full((ids.size, algorithm.num_labels),
                             1.0 / algorithm.num_labels)
            expect[seeds] = 0.0
            expect[np.flatnonzero(seeds), algorithm.seed_labels(
                ids[seeds])] = 1.0
        else:
            expect = np.full(ids.size, algorithm.default_score)
            expect[seeds] = algorithm.seed_scores(ids[seeds])
        assert values.tobytes() == expect.tobytes()


class TestSeedTable:
    def test_extends_without_rederiving_the_prefix(self):
        calls = []

        def derive(ids):
            calls.append((int(ids[0]) if ids.size else None, ids.size))
            return ids % 3 == 0, ids * 2.0

        table = SeedTable(derive)
        mask, values = table.covering(None, np.array([4, 9]))
        assert mask.size == 10 and values.tolist() == list(
            np.arange(10) * 2.0)
        assert table.covering(None, np.array([0, 5]))[0] is mask
        mask, values = table.covering(None, np.arange(13, 15))
        assert calls == [(0, 10), (10, 5)]
        assert mask.tolist() == [i % 3 == 0 for i in range(15)]

    def test_an_empty_graph_covers_nothing(self):
        table = SeedTable(lambda ids: (ids > 0, ids.astype(float)))
        mask, values = table.covering(None, np.empty(0, dtype=np.int64))
        assert mask.size == values.size == 0


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_hashing_follows_vertex_count_changes_not_steps(name, monkeypatch):
    """A tracked run and three refines, each batch growing the graph:
    the ids are hashed once per vertex-count change (two salts each),
    however many steps apply them."""
    calls = []

    def spy(ids, salt=0):
        calls.append(salt)
        return hash_ids(ids, salt)

    module = lp_module if name == "label_propagation" else coem_module
    monkeypatch.setattr(module, "hash_ids", spy)
    engine = GraphBoltEngine(ALGORITHMS[name](), num_iterations=10)
    engine.run(rmat(scale=8, edge_factor=8, seed=11, weighted=True))
    rng = np.random.default_rng(7)
    counts = {engine.graph.num_vertices}
    for _ in range(3):
        fresh = engine.graph.num_vertices
        batch = make_random_batch(engine.graph, rng, 40, 20).merge(
            MutationBatch.from_edges(additions=[(1, fresh), (fresh + 1, 2)],
                                     grow_to=fresh + 3))
        engine.apply_mutations(batch)
        counts.add(engine.graph.num_vertices)
    steps = engine.metrics.iterations + engine.metrics.refinement_iterations
    assert len(counts) == 4 and steps >= 30
    assert len(calls) == 2 * len(counts)


class TestBeliefPropagationPriors:
    """BP's priors (one 2-D row per id) come from a table too: every
    message gathers them by source id instead of hashing each source."""

    def test_contributions_are_the_formula(self):
        algorithm = BeliefPropagation()
        rng = np.random.default_rng(9)
        # The large graph's ids extend the small one's table; the small
        # one then reads the extended table's prefix.
        for scale in (6, 9, 6):
            graph = rmat(scale=scale, edge_factor=4, seed=3, weighted=True)
            src = rng.integers(0, graph.num_vertices, 500)
            values = rng.random((src.size, algorithm.num_states)) + 0.1
            got = algorithm.message(graph, src, values)
            logs = np.log((algorithm.priors(src) * values) @ algorithm.psi)
            expect = logs - logs.mean(axis=1, keepdims=True)
            assert got.tobytes() == expect.tobytes()

    def test_priors_follow_vertex_count_changes_not_sweeps(
            self, monkeypatch):
        calls = []

        def spy(ids, salt=0):
            calls.append(salt)
            return uniform_from_ids(ids, salt)

        monkeypatch.setattr(bp_module, "uniform_from_ids", spy)
        algorithm = BeliefPropagation()
        engine = GraphBoltEngine(algorithm, num_iterations=10)
        engine.run(rmat(scale=8, edge_factor=8, seed=11, weighted=True))
        rng = np.random.default_rng(7)
        counts = {engine.graph.num_vertices}
        for _ in range(2):
            fresh = engine.graph.num_vertices
            batch = make_random_batch(engine.graph, rng, 40, 20).merge(
                MutationBatch.from_edges(additions=[(1, fresh)],
                                         grow_to=fresh + 2))
            engine.apply_mutations(batch)
            counts.add(engine.graph.num_vertices)
        steps = (engine.metrics.iterations
                 + engine.metrics.refinement_iterations)
        assert len(counts) == 3 and steps >= 20
        assert len(calls) == algorithm.num_states * len(counts)


#: SHA-256 of ``hash_ids(arange(2**16 + 1), salt)``, per salt in use:
#: LP's (7, 8), CoEM's (11, 12), BP's priors (23, 24) and CF's first
#: three factors (31-33).  Seeds, priors and factors are functions of
#: these bytes: they must not move.
HASH_DIGESTS = {
    7: "08337acec051c8933fd8a684c1a004c2607f0cdfae7e02ca1665586105d2b371",
    8: "5830b46b9544c292eb183122ab0d7a5d0a6b2684ecbe4187c0f2241f369bce05",
    11: "85678ecac2c572ca6af91012f66f101ff5ef84c3e614457ce4f24212451d9f2a",
    12: "1f5fee5b3cde8d6934b926e10f1cfb958c5834a6b094816f701ac58490fd4ab4",
    23: "b3ff1e11f4ee71de10400520d3cda79089462093c1c096d2c2e8cf023b0e87c5",
    24: "a6bf3f4d98e7681a57d61b6a6fed50e5048c4b827356c2c541381e45252d7edc",
    31: "2904c9683eff0043ce63a526d6e668c9d146620967042616fc70c868881a3003",
    32: "bd4d1212f124cdd30fd2627b8d5c2e281fd670dca8529f6ce1a99ca7a157809f",
    33: "8e1ff8734194a7b990fa2de051473f14df1ce380c389a83008e460a2c12b9027",
}


@pytest.mark.parametrize("salt", sorted(HASH_DIGESTS))
def test_hash_ids_bytes_are_pinned(salt):
    ids = np.arange(2**16 + 1, dtype=np.int64)
    digest = hashlib.sha256(hash_ids(ids, salt).tobytes()).hexdigest()
    assert digest == HASH_DIGESTS[salt]
