"""Twin classes and the exact kernels that evaluate over them: the char poly
on the equitable-partition quotient and Ryser's sum grouped by class."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpow import permanents, spectral
from strongpow.errors import SizeGuardError
from strongpow.formulas import (
    CharPoly,
    char_poly_from_spectrum,
    closed_form_spectrum,
    euler_phi,
)
from strongpow.graphs import complete_graph, graph_from_edges, strong_power_graph
from strongpow.groups import make_cyclic, make_dihedral, noncyclic_corpus
from strongpow.permanents import (
    CliqueParams,
    clique_plus_vertex_laplacian_permanent,
    complete_graph_laplacian_permanent,
    permanent_ryser,
)
from strongpow.spectral import (
    IntMatrix,
    adjacency,
    char_poly_exact,
    laplacian,
    twin_classes,
)

from reference import det_bareiss, permanent_expansion


def shifted(m, t):
    """tI - M."""
    return IntMatrix(np.eye(m.n, dtype=np.int64) * t - m.array)


def unreduced_char_poly(m):
    """The char poly kernel over the all-singleton partition, whose quotient
    is M itself."""
    return CharPoly(tuple(spectral._char_poly_faddeev(m.array)))


def grouped_permanent(m, classes=None):
    """Ryser's grouped sum over m's twin classes, or over the given ones."""
    classes = twin_classes(m) if classes is None else classes
    return permanents._ryser_grouped(*spectral._twin_quotient(m, classes))


def unreduced_permanent(m):
    return grouped_permanent(m, [[i] for i in range(m.n)])


def test_twin_classes_of_cyclic_graphs():
    # identity, generators, the other elements; Z_2's two vertices are both
    # isolated, so they are one class there
    for n in range(3, 70):
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        others = [x for x in range(1, n) if math.gcd(x, n) != 1]
        expected = sorted(cls for cls in ([0], units, others) if cls)
        g = strong_power_graph(make_cyclic(n))
        for m in (adjacency(g), laplacian(g)):
            classes = twin_classes(m)
            assert classes == expected, n
            sizes = sorted(map(len, classes))
            phi = euler_phi(n)
            assert sizes == sorted(s for s in (1, phi, n - phi - 1) if s)
    assert twin_classes(adjacency(strong_power_graph(make_cyclic(2)))) == [[0, 1]]


def test_twin_classes_of_complete_graphs():
    # a noncyclic group's strong power graph is complete
    graphs = [complete_graph(n) for n in range(1, 40)]
    graphs += [strong_power_graph(grp) for _, grp in noncyclic_corpus(24)]
    graphs.append(strong_power_graph(make_dihedral(96)))
    for g in graphs:
        for m in (adjacency(g), laplacian(g)):
            assert twin_classes(m) == [list(range(g.n))]


def test_twin_classes_of_twin_free_matrices():
    path = graph_from_edges(6, [(i, i + 1) for i in range(5)])
    for m in (adjacency(path), laplacian(path), IntMatrix(np.arange(49).reshape(7, 7))):
        assert twin_classes(m) == [[i] for i in range(m.n)]
        assert char_poly_exact(m) == unreduced_char_poly(m)
    # object arrays are left as singletons, and the kernels then run unreduced
    big = IntMatrix(np.array(laplacian(complete_graph(5)).rows, dtype=object))
    assert twin_classes(big) == [[i] for i in range(5)]
    assert twin_classes(IntMatrix([])) == []


def test_twin_classes_of_a_cycle_are_singletons():
    # every row of C_8 sorts alike, so only the second step tells them apart
    cycle = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    assert twin_classes(adjacency(cycle)) == [[i] for i in range(8)]


def test_twin_classes_of_nonsymmetric_matrices():
    # rows 0 and 1 agree outside {0, 1}, but their columns do not
    rows = [[5, 2, 7], [2, 5, 7], [1, 3, 0]]
    assert twin_classes(IntMatrix(rows)) == [[0], [1], [2]]
    rows[2][1] = 1
    assert twin_classes(IntMatrix(rows)) == [[0, 1], [2]]
    # M_01 != M_10
    assert twin_classes(IntMatrix([[5, 2, 7], [3, 5, 7], [1, 1, 0]])) == [[0], [1], [2]]


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
    order = draw(st.permutations(range(n)))
    label = [0] * n
    start = 0
    for a, size in enumerate(sizes):
        for i in order[start:start + size]:
            label[i] = a
        start += size
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
    poly = char_poly_exact(m)
    assert poly == unreduced_char_poly(m)
    for t in range(-(m.n // 2), m.n - m.n // 2 + 1):
        assert poly.evaluate(t) == det_bareiss(shifted(m, t)), (m, t)
    value = permanent_expansion(m)
    assert grouped_permanent(m) == value
    assert unreduced_permanent(m) == value
    assert permanent_ryser(m) == value


@settings(max_examples=25, deadline=None)
@given(planted_matrices(max_n=7))
def test_kernels_over_twin_classes_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    m, _ = case
    expected = sympy.Matrix(m.rows).charpoly().all_coeffs()[::-1]
    assert char_poly_exact(m).coeffs == unreduced_char_poly(m).coeffs == tuple(
        int(c) for c in expected)
    per = sympy.Matrix(m.rows).per()
    assert grouped_permanent(m) == unreduced_permanent(m) == per


def test_cyclic_permanents_take_the_grouped_sum():
    # three classes for Z_n and one for K_n, at orders up to the memo's
    for n in (12, 20, 24):
        lap = laplacian(strong_power_graph(make_cyclic(n)))
        value = clique_plus_vertex_laplacian_permanent(CliqueParams.for_group(n, True))
        assert permanent_ryser(lap) == grouped_permanent(lap) == value
    assert permanent_ryser(laplacian(complete_graph(24))) == complete_graph_laplacian_permanent(24)


def test_kernels_read_the_classes_off_the_entries():
    # Joining the identity of Z_12 to the generator 1 in one entry pair moves
    # 1 out of the generators' class, although n and phi stay as they were:
    # the char poly and the permanent then leave the closed forms, and still
    # equal the unreduced kernels.
    n = 12
    lap = laplacian(strong_power_graph(make_cyclic(n)))
    closed_poly = char_poly_from_spectrum(closed_form_spectrum(n, True))
    closed_per = clique_plus_vertex_laplacian_permanent(CliqueParams.for_group(n, True))
    assert char_poly_exact(lap) == closed_poly
    assert permanent_ryser(lap) == grouped_permanent(lap) == closed_per
    a = lap.array.copy()
    assert a[0, 1] == a[1, 0] == 0
    a[0, 1] = a[1, 0] = -1
    moved = IntMatrix(a)
    assert twin_classes(moved) == [[0], [1], [2, 3, 4, 6, 8, 9, 10], [5, 7, 11]]
    poly = char_poly_exact(moved)
    assert poly != closed_poly
    assert poly == unreduced_char_poly(moved)
    assert poly.evaluate(0) == det_bareiss(moved)
    value = permanent_ryser(moved)
    assert value != closed_per
    assert value == unreduced_permanent(moved) == grouped_permanent(moved)


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
        for m in (adjacency(g), laplacian(g)):
            assert math.prod(len(cls) + 1 for cls in twin_classes(m)) == terms
            if terms > permanents._TERM_BUDGET:
                with pytest.raises(SizeGuardError, match="49536 grouped terms, past the budget"):
                    permanent_ryser(m)
