"""Streamed exports: the chunks of each exporter join to the text that the
reference builds whole, so a chunk boundary that drops or repeats bytes
fails here. Every matrix and graph but the empty ones spans several row
blocks."""

import random

from strongpow.graphs import (
    _BLOCK_ROWS,
    Graph,
    graph_from_edges,
    graph_to_dot,
    graph_to_json,
    strong_power_graph,
)
from strongpow.groups import make_cyclic, make_dihedral
from strongpow.spectral import IntMatrix, adjacency, laplacian, to_matrix_market

from reference import graph_dot_text, graph_json_text, matrix_market_text

# three full row blocks and a partial fourth
N = 3 * _BLOCK_ROWS + 5


def joined(chunks) -> str:
    chunks = list(chunks)
    assert all(isinstance(c, str) for c in chunks)
    return "".join(chunks)


def test_matrix_market_symmetric_past_one_block():
    g = strong_power_graph(make_cyclic(N))
    for m in (laplacian(g), adjacency(g)):
        chunks = list(to_matrix_market(m))
        assert len(chunks) == 1 + 4  # the header, then one chunk per row block
        assert joined(chunks) == matrix_market_text(m)


def test_matrix_market_general_object_entries_past_int64():
    rng = random.Random(7)
    big = 1 << 70
    rows = [[rng.choice((0, 0, 1, -1, rng.randint(-big, big))) for _ in range(N)]
            for _ in range(N)]
    rows[0][N - 1], rows[N - 1][0] = (1 << 63) + 5, -(1 << 64)
    m = IntMatrix(rows)
    assert m.rows[0][N - 1] == (1 << 63) + 5 and not m.is_symmetric()
    text = joined(to_matrix_market(m))
    assert text == matrix_market_text(m)
    assert text.splitlines()[0].endswith(" general")
    assert f"1 {N} {(1 << 63) + 5}\n" in text and f"{N} 1 {-(1 << 64)}\n" in text


def test_matrix_market_empty_matrix():
    m = IntMatrix([])
    assert joined(to_matrix_market(m)) == matrix_market_text(m) == (
        "%%MatrixMarket matrix coordinate integer symmetric\n0 0 0\n"
    )


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
    assert joined(graph_to_json(graphs[1])) == f'{{"n": {N}, "edges": []}}'
