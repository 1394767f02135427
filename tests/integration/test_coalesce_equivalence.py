"""Property: coalescing a batch sequence preserves stream semantics.

For any base graph and any sequence of mutation batches, applying the
batches one by one must produce the same final graph as applying the
single coalesced batch -- including the stream semantics that re-adding
a present edge is skipped and deleting an absent edge is skipped.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch, coalesce_batches


@st.composite
def batch_sequence(draw):
    num_vertices = draw(st.integers(2, 8))

    def edge():
        return st.tuples(
            st.integers(0, num_vertices - 1),
            st.integers(0, num_vertices - 1),
        ).filter(lambda e: e[0] != e[1])

    base = draw(st.lists(edge(), max_size=15))
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(edge(),
                              st.floats(0.5, 4.0, allow_nan=False)),
                    max_size=5,
                ),
                st.lists(edge(), max_size=5),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return num_vertices, sorted(set(base)), batches


def weighted_edge_map(graph):
    src, dst, weight = graph.all_edges()
    return dict(zip(zip(src.tolist(), dst.tolist()), weight.tolist()))


class TestCoalesceEquivalence:
    @given(batch_sequence())
    @settings(max_examples=120, deadline=None)
    def test_sequential_equals_coalesced(self, data):
        num_vertices, base, raw_batches = data
        batches = [
            MutationBatch.from_edges(
                additions=[edge for edge, _ in additions],
                deletions=deletions,
                add_weights=[weight for _, weight in additions],
            )
            for additions, deletions in raw_batches
        ]

        sequential = StreamingGraph(
            CSRGraph.from_edges(base, num_vertices=num_vertices)
        )
        for batch in batches:
            sequential.apply_batch(batch)

        merged = coalesce_batches(batches)
        coalesced = StreamingGraph(
            CSRGraph.from_edges(base, num_vertices=num_vertices)
        )
        coalesced.apply_batch(merged)

        assert weighted_edge_map(sequential.graph) == (
            weighted_edge_map(coalesced.graph)
        )
