"""Streamed exports: the chunks of each exporter join to the text that the
reference builds whole, so a chunk boundary that drops or repeats bytes
fails here. Every graph but the empty ones spans several row blocks. The
Matrix Market text is read off the graph's masks, and must equal the
reference text of the whole Laplacian or adjacency matrix."""

from hypothesis import given, settings
from hypothesis import strategies as st

from strongpow.graphs import (
    _BLOCK_ROWS,
    Graph,
    graph_from_edges,
    graph_to_dot,
    graph_to_json,
    graph_to_matrix_market,
    strong_power_graph,
)
from strongpow.groups import make_cyclic, make_dihedral, parse_group_spec

from reference import (
    adjacency_matrix,
    graph_dot_text,
    graph_json_text,
    laplacian_matrix,
    matrix_market_text,
)

# three full row blocks and a partial fourth
N = 3 * _BLOCK_ROWS + 5


def joined(chunks) -> str:
    chunks = list(chunks)
    assert all(isinstance(c, str) for c in chunks)
    return "".join(chunks)


def assert_matrix_market_matches(g):
    for laplacian, whole in ((True, laplacian_matrix(g)), (False, adjacency_matrix(g))):
        assert joined(graph_to_matrix_market(g, laplacian)) == matrix_market_text(whole)


def test_matrix_market_symmetric_past_one_block():
    g = strong_power_graph(make_cyclic(N))
    for laplacian in (True, False):
        chunks = list(graph_to_matrix_market(g, laplacian))
        assert len(chunks) == 1 + 4  # the header, then one chunk per row block
    assert_matrix_market_matches(g)


def test_matrix_market_of_group_graphs():
    # the groups of the Matrix Market export's test list; product:zn:2+zn:64
    # is noncyclic, so its graph is K_128
    for spec in ("zn:1", "zn:2", "zn:64", "dihedral:16", "product:zn:2+zn:64"):
        assert_matrix_market_matches(strong_power_graph(parse_group_spec(spec)))


def test_matrix_market_empty_matrix():
    g = Graph(0, ())
    assert_matrix_market_matches(g)
    for laplacian in (True, False):
        assert joined(graph_to_matrix_market(g, laplacian)) == (
            "%%MatrixMarket matrix coordinate integer symmetric\n0 0 0\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 * _BLOCK_ROWS + 3), st.randoms(use_true_random=False), st.floats(0, 1))
def test_matrix_market_of_random_graphs(n, rng, density):
    # isolated vertices have no diagonal entry in L, and rows with no
    # neighbour below them no off-diagonal one
    assert_matrix_market_matches(graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]))


def test_graph_exports_past_one_block():
    for g in (strong_power_graph(make_cyclic(N)), strong_power_graph(make_dihedral(N))):
        assert joined(graph_to_json(g)) == graph_json_text(g)
        assert joined(graph_to_dot(g)) == graph_dot_text(g)


def test_graph_exports_edgeless_and_sparse_blocks():
    b = _BLOCK_ROWS
    graphs = [
        Graph(0, ()),
        graph_from_edges(N, []),
        # edges only in the first and third row blocks
        graph_from_edges(N, [(0, 1), (2 * b, 2 * b + 1)]),
        # the first row block has no edge of its own
        graph_from_edges(N, [(b + 1, N - 1), (N - 2, N - 1)]),
    ]
    for g in graphs:
        assert joined(graph_to_json(g)) == graph_json_text(g)
        assert joined(graph_to_dot(g)) == graph_dot_text(g)
        assert_matrix_market_matches(g)
    assert joined(graph_to_json(graphs[1])) == f'{{"n": {N}, "edges": []}}'
