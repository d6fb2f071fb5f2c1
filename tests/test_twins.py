"""Twin quotients and the exact kernels that evaluate over them: the char
poly on the equitable-partition quotient and Ryser's sum grouped by class.

`graphs.twin_quotient` reads a graph's quotient off its masks. The
reference, `twin_classes` and `matrix_quotient` in tests/reference.py,
reads it off the entries of the whole matrix, and the kernels are checked
on both against determinants and permanents of the whole matrix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpow import permanents, spectral
from strongpow.errors import SizeGuardError
from strongpow.formulas import (
    char_poly_from_spectrum,
    closed_form_spectrum,
    euler_phi,
)
from strongpow.graphs import (
    Graph,
    complete_graph,
    graph_from_edges,
    strong_power_graph,
    twin_quotient,
)
from strongpow.groups import make_cyclic, make_dihedral, noncyclic_corpus
from strongpow.permanents import (
    clique_plus_vertex_laplacian_permanent,
    clique_plus_vertex_shape,
    complete_graph_laplacian_permanent,
    permanent_ryser,
)
from strongpow.spectral import char_poly_exact, laplacian, spanning_tree_count_kirchhoff

from reference import (
    IntMatrix,
    adjacency_matrix,
    det_bareiss,
    laplacian_matrix,
    matrix_quotient,
    permanent_expansion,
    poly_at,
    twin_classes,
)


def shifted(m, t):
    """tI - M."""
    return IntMatrix([[t * (i == j) - x for j, x in enumerate(row)]
                      for i, row in enumerate(m.rows)])


def singletons(m):
    return [[i] for i in range(m.n)]


def unreduced_char_poly(m):
    """The char poly kernel over the all-singleton partition, whose quotient
    is M itself."""
    return tuple(spectral._char_poly_faddeev([list(row) for row in m.rows]))


def grouped_permanent(m, classes=None):
    """Ryser's grouped sum over m's twin classes, or over the given ones."""
    return permanents._ryser_grouped(*matrix_quotient(m, classes))


def unreduced_permanent(m):
    return grouped_permanent(m, singletons(m))


def test_twin_classes_of_cyclic_graphs():
    # identity, generators, the other elements; Z_2's two vertices are both
    # isolated, so they are one class there
    for n in range(3, 70):
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        others = [x for x in range(1, n) if math.gcd(x, n) != 1]
        expected = sorted(cls for cls in ([0], units, others) if cls)
        g = strong_power_graph(make_cyclic(n))
        for lap, m in ((False, adjacency_matrix(g)), (True, laplacian_matrix(g))):
            classes = twin_classes(m)
            assert classes == expected, n
            assert twin_quotient(g, lap) == matrix_quotient(m)
            phi = euler_phi(n)
            assert sorted(twin_quotient(g, lap)[0]) == sorted(s for s in (1, phi, n - phi - 1) if s)
    z2 = strong_power_graph(make_cyclic(2))
    assert twin_classes(adjacency_matrix(z2)) == [[0, 1]]
    assert twin_quotient(z2, False) == ((2,), ((0,),), (0,))


def test_twin_classes_of_complete_graphs():
    # a noncyclic group's strong power graph is complete
    graphs = [complete_graph(n) for n in range(1, 40)]
    graphs += [strong_power_graph(grp) for _, grp in noncyclic_corpus(24)]
    graphs.append(strong_power_graph(make_dihedral(96)))
    for g in graphs:
        for lap, m in ((False, adjacency_matrix(g)), (True, laplacian_matrix(g))):
            assert twin_classes(m) == [list(range(g.n))]
            assert twin_quotient(g, lap) == matrix_quotient(m)
    # verify reads L(K_n) without a graph
    from strongpow.verify import _complete_laplacian
    for n in range(1, 40):
        assert _complete_laplacian(n) == laplacian(complete_graph(n))
    # past any size the reference reaches, K_n is one class
    n = 4096
    assert laplacian(complete_graph(n)) == ((n,), ((-1,),), (n - 1,))


def test_twin_classes_of_twin_free_matrices():
    path = graph_from_edges(6, [(i, i + 1) for i in range(5)])
    for m in (adjacency_matrix(path), laplacian_matrix(path),
              IntMatrix(np.arange(49).reshape(7, 7))):
        assert twin_classes(m) == singletons(m)
        assert char_poly_exact(matrix_quotient(m)) == unreduced_char_poly(m)
    assert twin_quotient(path, True) == matrix_quotient(laplacian_matrix(path))
    # entries past 2^63 are read like any others
    big = IntMatrix([[x * 10**30 for x in row] for row in laplacian_matrix(complete_graph(5)).rows])
    assert twin_classes(big) == [list(range(5))]
    assert char_poly_exact(matrix_quotient(big)) == unreduced_char_poly(big)
    assert twin_classes(IntMatrix([])) == []
    assert twin_quotient(Graph(0, ()), True) == matrix_quotient(IntMatrix([])) == ((), (), ())


def test_twin_classes_of_a_cycle_are_singletons():
    # every row of C_8 sorts alike, so only the second step tells them apart
    cycle = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    assert twin_classes(adjacency_matrix(cycle)) == [[i] for i in range(8)]
    assert twin_quotient(cycle, False)[0] == (1,) * 8


def test_twin_classes_of_nonsymmetric_matrices():
    # rows 0 and 1 agree outside {0, 1}, but their columns do not
    rows = [[5, 2, 7], [2, 5, 7], [1, 3, 0]]
    assert twin_classes(IntMatrix(rows)) == [[0], [1], [2]]
    rows[2][1] = 1
    assert twin_classes(IntMatrix(rows)) == [[0, 1], [2]]
    # M_01 != M_10
    assert twin_classes(IntMatrix([[5, 2, 7], [3, 5, 7], [1, 1, 0]])) == [[0], [1], [2]]


def _labels(draw, sizes):
    """A random labelling: label[i] is the planted class of vertex i."""
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    label = [0] * n
    start = 0
    for a, size in enumerate(sizes):
        for i in order[start:start + size]:
            label[i] = a
        start += size
    return label


@st.composite
def planted_matrices(draw, max_n=8):
    """A matrix with planted twin classes of sizes 1..6: random diagonal and
    class-to-class values in -3..3, symmetric or not, under a random
    labeling, and at times one entry changed. Returns the matrix and its
    planted classes (None when an entry was changed)."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    while sum(sizes) > max_n:
        sizes.pop()
    sizes = sizes or [1]
    k, n = len(sizes), sum(sizes)
    values = st.integers(-3, 3)
    symmetric = draw(st.booleans())
    c = [[draw(values) for _ in range(k)] for _ in range(k)]
    if symmetric:
        c = [[c[min(a, b)][max(a, b)] for b in range(k)] for a in range(k)]
    diag = [draw(values) for _ in range(k)]
    label = _labels(draw, sizes)
    rows = [[diag[label[i]] if i == j else c[label[i]][label[j]] for j in range(n)] for i in range(n)]
    planted = [[i for i in range(n) if label[i] == a] for a in range(k)]
    if n > 1 and draw(st.booleans()):
        # one entry off: row i, or column j, may now leave its class
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
        planted = None
    return IntMatrix(rows), planted


@settings(max_examples=150, deadline=None)
@given(planted_matrices())
def test_kernels_over_twin_classes_match_the_unreduced_ones(case):
    m, planted = case
    classes = twin_classes(m)
    assert sorted(i for cls in classes for i in cls) == list(range(m.n))
    if planted is not None:
        # the reader finds every planted class, perhaps merged with others
        found = {i: a for a, cls in enumerate(classes) for i in cls}
        assert all(len({found[i] for i in cls}) == 1 for cls in planted)
    poly = char_poly_exact(matrix_quotient(m))
    assert poly == unreduced_char_poly(m)
    for t in range(-(m.n // 2), m.n - m.n // 2 + 1):
        assert poly_at(poly, t) == det_bareiss(shifted(m, t)), (m, t)
    value = permanent_expansion(m)
    assert grouped_permanent(m) == value
    assert unreduced_permanent(m) == value
    assert permanent_ryser(matrix_quotient(m)) == value
    assert permanent_ryser(matrix_quotient(m, singletons(m))) == value


@settings(max_examples=25, deadline=None)
@given(planted_matrices(max_n=7))
def test_kernels_over_twin_classes_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    m, _ = case
    expected = sympy.Matrix(m.rows).charpoly().all_coeffs()[::-1]
    assert char_poly_exact(matrix_quotient(m)) == unreduced_char_poly(m) == tuple(
        int(c) for c in expected)
    per = sympy.Matrix(m.rows).per()
    assert grouped_permanent(m) == unreduced_permanent(m) == per


@st.composite
def planted_graphs(draw, max_n=10):
    """A graph with planted twin classes: each class a clique (true twins)
    or independent (false twins), and each pair of classes joined entirely
    or not at all, under a random labelling."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    while sum(sizes) > max_n:
        sizes.pop()
    sizes = sizes or [1]
    k = len(sizes)
    joined = {(a, b): draw(st.booleans()) for a in range(k) for b in range(a, k)}
    label = _labels(draw, sizes)
    n = len(label)
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if joined[min(label[i], label[j]), max(label[i], label[j])]])


def _flip(g, i, j):
    """g with the pair {i, j} added as an edge, or dropped if it is one."""
    adj = list(g.adj)
    adj[i] ^= 1 << j
    adj[j] ^= 1 << i
    return Graph(g.n, tuple(adj))


@st.composite
def graphs_near_twins(draw):
    """A planted-twin graph, at times with one pair of vertices flipped
    (an edge dropped or added), which may split a class."""
    g = draw(planted_graphs())
    if g.n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(g.n)))[:2]
        g = _flip(g, i, j)
    return g


@settings(max_examples=200, deadline=None)
@given(graphs_near_twins())
def test_graph_quotient_equals_the_matrix_reader(g):
    for lap, m in ((True, laplacian_matrix(g)), (False, adjacency_matrix(g))):
        assert twin_quotient(g, lap) == matrix_quotient(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False), st.floats(0, 1))
def test_graph_quotient_of_random_graphs_with_one_edge_flipped(n, rng, density):
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < density])
    graphs = [g] + ([_flip(g, *rng.sample(range(n), 2))] if n > 1 else [])
    for h in graphs:
        for lap, m in ((True, laplacian_matrix(h)), (False, adjacency_matrix(h))):
            assert twin_quotient(h, lap) == matrix_quotient(m)


def _reduced_determinant(m):
    """det of m with row and column 0 deleted; 1 for a 1 x 1 matrix."""
    return det_bareiss(IntMatrix([row[1:] for row in m.rows[1:]]))


@settings(max_examples=120, deadline=None)
@given(graphs_near_twins())
def test_kernels_on_the_graph_quotient_match_the_whole_matrix(g):
    lap_m, adj_m = laplacian_matrix(g), adjacency_matrix(g)
    for lap, m in ((True, lap_m), (False, adj_m)):
        q = twin_quotient(g, lap)
        poly = char_poly_exact(q)
        for t in range(-(m.n // 2), m.n - m.n // 2 + 1):
            assert poly_at(poly, t) == det_bareiss(shifted(m, t))
        assert permanent_ryser(q) == permanent_expansion(m)
    if g.n:
        assert spanning_tree_count_kirchhoff(laplacian(g)) == _reduced_determinant(lap_m)


@settings(max_examples=25, deadline=None)
@given(graphs_near_twins())
def test_kernels_on_the_graph_quotient_match_sympy(g):
    sympy = pytest.importorskip("sympy")
    for lap, m in ((True, laplacian_matrix(g)), (False, adjacency_matrix(g))):
        q = twin_quotient(g, lap)
        expected = sympy.Matrix(m.rows).charpoly().all_coeffs()[::-1]
        assert char_poly_exact(q) == tuple(int(c) for c in expected)
        assert permanent_ryser(q) == sympy.Matrix(m.rows).per()


def test_cyclic_permanents_take_the_grouped_sum():
    # three classes for Z_n and one for K_n
    for n in (12, 20, 24):
        g = strong_power_graph(make_cyclic(n))
        value = clique_plus_vertex_laplacian_permanent(*clique_plus_vertex_shape(n, True))
        assert permanent_ryser(laplacian(g)) == grouped_permanent(laplacian_matrix(g)) == value
    assert permanent_ryser(laplacian(complete_graph(24))) == complete_graph_laplacian_permanent(24)


def test_kernels_read_the_classes_off_the_entries():
    # Joining the identity of Z_12 to the generator 1 moves 1 out of the
    # generators' class into that of the elements joined to every other,
    # although n and phi stay as they were: the char poly and the permanent
    # then leave the closed forms, and still equal the unreduced kernels on
    # the whole matrix.
    n = 12
    g = strong_power_graph(make_cyclic(n))
    closed_poly = char_poly_from_spectrum(closed_form_spectrum(n, True))
    closed_per = clique_plus_vertex_laplacian_permanent(*clique_plus_vertex_shape(n, True))
    assert char_poly_exact(laplacian(g)) == closed_poly
    assert permanent_ryser(laplacian(g)) == grouped_permanent(laplacian_matrix(g)) == closed_per
    assert not g.has_edge(0, 1)
    moved = _flip(g, 0, 1)
    whole = laplacian_matrix(moved)
    assert twin_classes(whole) == [[0], [1, 2, 3, 4, 6, 8, 9, 10], [5, 7, 11]]
    assert laplacian(moved) == matrix_quotient(whole)
    poly = char_poly_exact(laplacian(moved))
    assert poly != closed_poly
    assert poly == unreduced_char_poly(whole)
    assert poly_at(poly, 0) == det_bareiss(whole)
    value = permanent_ryser(laplacian(moved))
    assert value != closed_per
    assert value == unreduced_permanent(whole) == grouped_permanent(whole)


def test_permanent_term_budget_bounds_the_grouped_sum():
    # L(K_25) is a single twin class, whose grouped sum has 26 terms
    assert permanent_ryser(laplacian(complete_graph(25))) == complete_graph_laplacian_permanent(25)
    # Z_N's classes {0}, the units and the rest give 2 (phi + 1) (N - phi)
    # terms: every N up to 256 fits the budget, Z_320's 49,536 do not
    for n in range(3, 257):
        phi = euler_phi(n)
        assert 2 * (phi + 1) * (n - phi) <= permanents._TERM_BUDGET, n
    for n, terms in ((256, 33024), (320, 49536)):
        g = strong_power_graph(make_cyclic(n))
        for lap in (False, True):
            sizes = twin_quotient(g, lap)[0]
            assert math.prod(size + 1 for size in sizes) == terms
            if terms > permanents._TERM_BUDGET:
                with pytest.raises(SizeGuardError, match="49536 grouped terms, past the budget"):
                    permanent_ryser(twin_quotient(g, lap))
