"""Differential pin: the CSR row splice in ``apply_delta`` against the
``lil_matrix`` rebuild it replaced.

``lil_apply_delta`` below is that rebuild, kept verbatim as the
reference: every edge of the graph round-trips through a LIL matrix,
the delta is applied there (removals, then additions), and the result
is converted back to CSR.  The splice must produce the same
``indptr``/``indices``/``data`` — values and dtypes — and raise the same
:class:`GraphError` message on every invalid delta.
"""

import pytest
from hypothesis import given, settings as hsettings, strategies as st
from scipy import sparse

from repro.exceptions import GraphError
from repro.graph.digraph import CSRGraph
from repro.updates.delta import GraphDelta, apply_delta

pytestmark = pytest.mark.updates

WEIGHTS = (0.25, 1.0, 2.5, 7.0)


def lil_apply_delta(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    new_size = graph.num_nodes + delta.new_pages
    matrix = sparse.lil_matrix((new_size, new_size))
    old = graph.adjacency.tocoo()
    matrix[old.row, old.col] = old.data

    def check(node):
        if not 0 <= node < new_size:
            raise GraphError(
                f"node {node} out of range for updated graph of size "
                f"{new_size}"
            )

    for source, target in delta.removed_edges:
        check(source)
        check(target)
        if matrix[source, target] == 0:
            raise GraphError(
                f"cannot remove missing edge ({source}, {target})"
            )
        matrix[source, target] = 0
    for source, target in delta.added_edges:
        check(source)
        check(target)
        if source == target:
            raise GraphError(
                f"self-loop ({source}, {source}) not allowed in deltas"
            )
        matrix[source, target] = 1.0
    return CSRGraph(matrix.tocsr())


def weighted_graph(num_nodes, edges):
    """A CSRGraph from ``(source, target, weight)`` triples."""
    if not edges:
        return CSRGraph(sparse.csr_matrix((num_nodes, num_nodes)))
    rows, cols, weights = zip(*edges)
    return CSRGraph(sparse.csr_matrix(
        (weights, (rows, cols)), shape=(num_nodes, num_nodes)
    ))


def outcome(apply, graph, delta):
    try:
        result = apply(graph, delta)
    except GraphError as exc:
        return ("error", str(exc))
    adj = result.adjacency
    return ("graph", adj.shape, [
        (array.dtype, array.tolist())
        for array in (adj.indptr, adj.indices, adj.data)
    ])


def assert_same(graph, delta):
    expected = outcome(lil_apply_delta, graph, delta)
    assert outcome(apply_delta, graph, delta) == expected
    return expected


@st.composite
def graph_and_delta(draw):
    num_nodes = draw(st.integers(1, 18))
    edges = draw(st.lists(
        st.tuples(
            st.integers(0, num_nodes - 1),
            st.integers(0, num_nodes - 1),
            st.sampled_from(WEIGHTS),
        ),
        max_size=4 * num_nodes,
        unique_by=lambda edge: edge[:2],
    ))
    graph = weighted_graph(num_nodes, edges)
    new_pages = draw(st.integers(0, 3))
    # Mostly valid node ids, with an occasional one just out of range.
    node = st.integers(-1, num_nodes + new_pages)
    existing = [(s, t) for s, t, __ in edges]
    removed = []
    if existing:
        removed = draw(st.lists(st.sampled_from(existing), max_size=6))
    removed += draw(st.lists(st.tuples(node, node), max_size=1))
    added = draw(st.lists(st.tuples(node, node), max_size=8))
    if removed:
        # Remove-then-re-add: put some removed edges back.
        added += draw(st.lists(st.sampled_from(removed), max_size=2))
    delta = GraphDelta(
        added_edges=tuple(added),
        removed_edges=tuple(removed),
        new_pages=new_pages,
    )
    return graph, delta


class TestSpliceMatchesLil:
    @given(graph_and_delta())
    @hsettings(max_examples=300, deadline=None)
    def test_random_weighted_deltas(self, case):
        assert_same(*case)

    @pytest.fixture
    def graph(self):
        return weighted_graph(6, [
            (0, 1, 2.5), (0, 3, 1.0), (1, 2, 0.25), (2, 0, 7.0),
            (2, 2, 1.0), (4, 5, 2.5), (5, 0, 1.0),
        ])

    def test_new_pages_with_edges_both_ways(self, graph):
        delta = GraphDelta(
            added_edges=((7, 0), (6, 7), (3, 6), (7, 6), (0, 8)),
            new_pages=3,
        )
        kind, shape, __ = assert_same(graph, delta)
        assert kind == "graph" and shape == (9, 9)

    def test_new_pages_only(self, graph):
        assert assert_same(graph, GraphDelta(new_pages=2))[1] == (8, 8)

    def test_empty_delta(self, graph):
        assert assert_same(graph, GraphDelta())[0] == "graph"

    def test_remove_then_re_add_resets_weight(self, graph):
        delta = GraphDelta(
            added_edges=((0, 1), (2, 0)),
            removed_edges=((0, 1), (2, 0)),
        )
        assert_same(graph, delta)
        assert apply_delta(graph, delta).adjacency[0, 1] == 1.0

    def test_re_adding_weighted_edge_overwrites(self, graph):
        delta = GraphDelta(added_edges=((0, 1), (4, 5)))
        assert_same(graph, delta)
        assert apply_delta(graph, delta).adjacency[4, 5] == 1.0

    def test_duplicate_adds(self, graph):
        delta = GraphDelta(added_edges=((3, 4), (3, 4), (0, 1), (0, 1)))
        assert_same(graph, delta)

    def test_removing_existing_self_loop(self, graph):
        assert_same(graph, GraphDelta(removed_edges=((2, 2),)))

    def test_row_emptied_and_refilled(self, graph):
        delta = GraphDelta(
            added_edges=((5, 3), (5, 1)),
            removed_edges=((5, 0),),
        )
        assert_same(graph, delta)

    @pytest.mark.parametrize("delta", [
        GraphDelta(removed_edges=((0, 1), (0, 1))),
        GraphDelta(removed_edges=((1, 0),)),
        GraphDelta(added_edges=((3, 3),)),
        GraphDelta(added_edges=((0, 6),)),
        GraphDelta(added_edges=((-1, 0),)),
        GraphDelta(removed_edges=((0, 9),), new_pages=2),
        GraphDelta(
            added_edges=((7, 7),), removed_edges=((1, 0),), new_pages=2
        ),
    ])
    def test_errors_match(self, graph, delta):
        kind, message = assert_same(graph, delta)
        assert kind == "error" and message

    def test_empty_graph(self):
        graph = weighted_graph(3, [])
        assert_same(graph, GraphDelta(added_edges=((0, 1), (2, 1))))


@pytest.mark.tier2
def test_benchmark_delta_chain_matches_lil():
    """The benchmark's seed-1 update chain on its 200k-page graph."""
    from e2ebench import ops, spec
    from repro.generators.datasets import make_au_like

    dataset = make_au_like(200_000, seed=spec.GRAPH_SEED)
    graph = dataset.graph
    for delta in ops.plan_deltas(1, 5, dataset.graph, dataset):
        assert_same(graph, delta)
        graph = apply_delta(graph, delta)
