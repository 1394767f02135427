"""Structure adjustment by range splice.

The contract under test: the snapshot a store's ``adjust`` emits equals,
in dtype, shape and bytes on all six canonical arrays, the snapshot the
:class:`CSRGraph` constructor builds from ``survivors ++ additions`` --
on heap and out of core alike -- and nothing on that path rebuilds
through the constructor or expands the full edge list.
"""

import os

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph import splice
from repro.graph.splice import locate, row_search
from repro.graph.storage import ARRAY_NAMES, HeapStore, MmapStore

I64 = np.int64


def ids(values):
    return np.asarray(values, dtype=I64).reshape(-1)


def random_multigraph(seed, num_vertices=24, num_edges=90):
    """Seeded random graph with an empty row, a hub row and repeated
    (src, dst) pairs carrying distinct weights."""
    rng = np.random.default_rng(seed)
    src = rng.integers(1, num_vertices - 1, num_edges)
    dst = rng.integers(0, num_vertices, num_edges)
    src[: num_edges // 4] = 3                      # hub row
    src[src == 5] = 6                              # row 5 stays empty
    repeat = rng.integers(0, num_edges, num_edges // 6)
    src = np.concatenate([src, src[repeat]])       # multi-edges
    dst = np.concatenate([dst, dst[repeat]])
    weight = rng.random(src.size) + 0.25
    return CSRGraph(num_vertices, src, dst, weight)


def rebuilt(old, num_vertices, add_src, add_dst, add_weight,
            del_src, del_dst):
    """The oracle: drop the leftmost CSR copy of each deleted pair,
    append the additions, run the constructor."""
    src, dst, weight = (a.copy() for a in old.all_edges())
    keep = np.ones(src.size, dtype=bool)
    for u, v in zip(del_src.tolist(), del_dst.tolist()):
        keep[np.flatnonzero(keep & (src == u) & (dst == v))[0]] = False
    return CSRGraph(
        num_vertices,
        np.concatenate([src[keep], add_src]),
        np.concatenate([dst[keep], add_dst]),
        np.concatenate([weight[keep], add_weight]),
    )


def assert_bit_equal(spliced, oracle):
    assert spliced.num_vertices == oracle.num_vertices
    for name in ARRAY_NAMES:
        got = np.asarray(getattr(spliced, name))
        want = getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def segment_bytes(store, graph):
    return [open(os.path.join(store.root, name), "rb").read()
            for name in store.segment_files(graph.snapshot_id)]


# Each case: (base graph, new vertex count, additions, deletions).
def _case(graph, additions=(), deletions=(), weights=None, grow_to=None):
    add_src = ids([e[0] for e in additions])
    add_dst = ids([e[1] for e in additions])
    if weights is None:
        weights = 0.5 + np.arange(add_src.size, dtype=np.float64)
    top = max([graph.num_vertices - 1, *add_src.tolist(),
               *add_dst.tolist()]) + 1
    return (graph, max(top, grow_to or 0), add_src, add_dst,
            np.asarray(weights, dtype=np.float64),
            ids([e[0] for e in deletions]), ids([e[1] for e in deletions]))


def _row(graph, vertex):
    return [(vertex, int(t)) for t in graph.out_neighbors(vertex)]


def cases():
    base = random_multigraph(1)
    last = base.num_vertices - 1
    src, dst, _ = base.all_edges()
    live = list(dict.fromkeys(zip(src.tolist(), dst.tolist())))
    pairs, counts = np.unique(np.stack([src, dst], axis=1), axis=0,
                              return_counts=True)
    multi = tuple(int(x) for x in pairs[np.argmax(counts)])
    assert counts.max() > 1
    yield "empty_batch", _case(base)
    yield "additions_only", _case(base, [(2, 9), (7, 1), (2, 3)])
    yield "deletions_only", _case(base, deletions=live[::7])
    yield "mixed", _case(base, [(4, 4), (9, 0), (3, 1)], live[3::11])
    yield "replace_with_new_weight", _case(
        base, [live[10]], [live[10]], weights=[42.0])
    yield "replace_one_copy_of_a_multi_edge", _case(
        base, [multi], [multi], weights=[7.0])
    yield "add_beside_a_multi_edge", _case(base, [multi], weights=[9.0])
    yield "whole_row_deleted", _case(
        base, deletions=list(dict.fromkeys(_row(base, 8))))
    yield "whole_hub_row_deleted_and_refilled", _case(
        base, [(3, 0), (3, last)], list(dict.fromkeys(_row(base, 3))))
    yield "into_empty_rows", _case(base, [(5, 2), (5, 1), (0, 6)])
    yield "into_hub_row", _case(base, [(3, v) for v in (0, 11, last)])
    yield "first_and_last_vertex", _case(
        base, [(0, last), (last, 0), (0, 1), (last, last - 1)])
    yield "duplicate_additions_keep_batch_order", _case(
        base, [(2, 9), (7, 1), (2, 9), (2, 9)], weights=[3.0, 1.0, 2.0, 4.0])
    yield "growth_by_endpoint", _case(
        base, [(last + 3, 1), (2, last + 1)], live[:2])
    yield "growth_by_grow_to_alone", _case(base, grow_to=last + 6)
    empty = CSRGraph.from_edges([], num_vertices=4)
    yield "empty_graph_empty_batch", _case(empty)
    yield "empty_graph_additions", _case(empty, [(3, 0), (0, 3), (6, 2)])
    yield "no_vertices", _case(CSRGraph.from_edges([], num_vertices=0),
                               [(1, 0)])


CASES = dict(cases())


@pytest.mark.parametrize("name", CASES)
class TestSpliceEqualsRebuild:
    def test_heap(self, name):
        old, num_vertices, *delta = CASES[name]
        spliced, added = HeapStore().adjust(old, num_vertices, *delta)
        assert_bit_equal(spliced, rebuilt(old, num_vertices, *delta))
        self._check_added_slots(spliced, added, *delta[:3])

    def test_mmap(self, name, tmp_path):
        old, num_vertices, *delta = CASES[name]
        store = MmapStore(str(tmp_path / "spliced"))
        spliced, added = store.adjust(store.publish(old), num_vertices,
                                      *delta)
        oracle = rebuilt(old, num_vertices, *delta)
        assert_bit_equal(spliced, oracle)
        self._check_added_slots(spliced, added, *delta[:3])
        # adjust leaves the generation unsealed; sealed, the byte
        # comparison below covers its headers and CRCs too
        store.verify(spliced.snapshot_id)
        reference = MmapStore(str(tmp_path / "reference"))
        assert (segment_bytes(store, spliced)
                == segment_bytes(reference, reference.publish(oracle)))

    @staticmethod
    def _check_added_slots(graph, slots, add_src, add_dst, add_weight):
        assert np.unique(slots).size == add_src.size
        assert np.array_equal(graph.out_targets[slots], add_dst)
        assert np.array_equal(graph.out_weights[slots], add_weight)
        assert np.array_equal(
            np.searchsorted(graph.out_offsets, slots, side="right") - 1,
            add_src)


@pytest.mark.parametrize("sink", ["heap", "mmap"])
@pytest.mark.parametrize("seed", range(6))
def test_random_streams_match_rebuild(sink, seed, tmp_path, monkeypatch):
    # Each stream runs twice: in one chunk per array, then with a chunk
    # bound of a few slots, so every array is emitted as ~20 chunks and
    # runs, additions and deletions straddle the chunk boundaries.
    for bound in (splice.CHUNK_ELEMENTS, 5):
        monkeypatch.setattr(splice, "CHUNK_ELEMENTS", bound)
        rng = np.random.default_rng(100 + seed)
        graph = random_multigraph(seed)
        if sink == "mmap":
            graph = MmapStore(str(tmp_path / str(bound))).publish(graph)
        stream = StreamingGraph(graph)
        for step in range(5):
            old = stream.graph
            src, dst, _ = old.all_edges()
            top = old.num_vertices + (2 if step % 2 else 0)
            picks = rng.choice(src.size, size=min(12, src.size),
                               replace=False)
            result = stream.apply_batch(MutationBatch(
                add_src=rng.integers(0, top, 15),
                add_dst=rng.integers(0, top, 15),
                add_weight=rng.random(15) + 0.5,
                del_src=src[picks], del_dst=dst[picks],
            ))
            assert_bit_equal(stream.graph, rebuilt(
                old, stream.graph.num_vertices, result.add_src,
                result.add_dst, result.add_weight, result.del_src,
                result.del_dst))
            # The mask names the added copies themselves: beside a
            # surviving multi-edge twin a lookup by (src, dst) would
            # find the twin.
            slots = np.flatnonzero(result.added_edge_mask())
            assert np.array_equal(slots, np.sort(result.added_slots))
            assert np.array_equal(
                stream.graph.out_weights[result.added_slots],
                result.add_weight)
        if sink == "mmap":
            stream.graph.store.verify()


class TestRowSearch:
    def _oracle(self, graph, keys, values, side):
        return [
            int(graph.out_offsets[k])
            + int(np.searchsorted(graph.out_neighbors(k), v, side=side))
            for k, v in zip(keys.tolist(), values.tolist())
        ]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_per_row_searchsorted(self, side):
        graph = random_multigraph(2)
        rng = np.random.default_rng(9)
        keys = rng.integers(0, graph.num_vertices, 400)
        keys[:20] = 5                                    # the empty row
        # Present, absent and out-of-range probe values.
        values = rng.integers(-4, graph.num_vertices + 4, 400)
        slots = row_search(graph.out_offsets, graph.out_targets, keys,
                           values, side)
        assert slots.tolist() == self._oracle(graph, keys, values, side)

    def test_reads_memmaps(self, tmp_path):
        graph = MmapStore(str(tmp_path)).publish(random_multigraph(4))
        keys = np.arange(graph.num_vertices, dtype=I64)
        values = np.full(keys.size, 7, dtype=I64)
        for side in ("left", "right"):
            slots = row_search(graph.out_offsets, graph.out_targets, keys,
                               values, side)
            assert slots.tolist() == self._oracle(graph, keys, values, side)

    def test_locate_reports_leftmost_copy_or_minus_one(self):
        graph = CSRGraph(4, ids([1, 1, 1, 2]), ids([3, 3, 0, 1]))
        found = locate(graph.out_offsets, graph.out_targets,
                       ids([1, 1, 2, 0, 3]), ids([3, 2, 1, 1, 9]))
        assert found.tolist() == [1, -1, 3, -1, -1]


class TestNoRebuildReachable:
    """Fails at the parent commit: structure adjustment used to run the
    constructor's lexsorts over ``all_edges()`` on every batch."""

    @pytest.mark.parametrize("sink", ["heap", "mmap"])
    def test_apply_batch_never_rebuilds(self, sink, tmp_path, monkeypatch):
        graph = random_multigraph(3)
        src, dst, _ = graph.all_edges()
        top = graph.num_vertices
        batches = [
            MutationBatch.from_edges(
                additions=[(2, 9), (0, top - 1)],
                deletions=[(int(src[0]), int(dst[0])),
                           (int(src[40]), int(dst[40]))],
                add_weights=[0.5, 1.5]),
            MutationBatch.from_edges(
                additions=[(top + 1, 1), (3, top)],
                deletions=[(int(src[-1]), int(dst[-1]))],
                grow_to=top + 4),
        ]
        if sink == "mmap":
            graph = MmapStore(str(tmp_path)).publish(graph)

        def forbidden(*args, **kwargs):
            raise AssertionError("rebuild reached from structure adjustment")

        monkeypatch.setattr(CSRGraph, "__init__", forbidden)
        monkeypatch.setattr(CSRGraph, "all_edges", forbidden)
        stream = StreamingGraph(graph)
        for batch in batches:
            result = stream.apply_batch(batch)
            assert result.add_src.size == 2
            mask = result.added_edge_mask()
            assert mask.shape == (stream.num_edges,) and mask.sum() == 2
        assert stream.num_vertices == top + 4
