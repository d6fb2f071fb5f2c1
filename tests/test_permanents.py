import math
import random

import numpy as np
import pytest

from strongpow import permanents
from strongpow.errors import SizeGuardError
from strongpow.graphs import (
    _clique_shape,
    complete_graph,
    strong_power_graph,
    twin_quotient,
)
from strongpow.groups import make_cyclic, noncyclic_corpus
from strongpow.permanents import (
    clique_plus_vertex_adjacency_permanent,
    clique_plus_vertex_laplacian_permanent,
    clique_plus_vertex_shape,
    complete_graph_laplacian_permanent,
    permanent_ryser,
)
from strongpow.spectral import laplacian

from reference import (
    IntMatrix,
    clique_plus_vertex_graph,
    graph_isomorphic,
    laplacian_matrix,
    matrix_quotient,
    permanent_expansion,
)


def adjacency(graph):
    """A's twin quotient, the form permanent_ryser reads."""
    return twin_quotient(graph, False)


def ryser(m):
    """permanent_ryser of a whole matrix, by its twin quotient."""
    return permanent_ryser(matrix_quotient(m))


def cyclic_adjacency_permanent(n):
    return clique_plus_vertex_adjacency_permanent(*clique_plus_vertex_shape(n, True))


def cyclic_laplacian_permanent(n):
    return clique_plus_vertex_laplacian_permanent(*clique_plus_vertex_shape(n, True))


def random_matrix(n, rng, lo=-3, hi=3):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_permanent_small_anchors():
    assert ryser(IntMatrix([[3]])) == 3
    assert ryser(IntMatrix([[1, 2], [3, 4]])) == 10
    assert ryser(IntMatrix([[1, 1], [1, 1]])) == 2
    ones3 = IntMatrix([[1] * 3 for _ in range(3)])
    assert ryser(ones3) == 6
    identity4 = IntMatrix([[int(i == j) for j in range(4)] for i in range(4)])
    assert ryser(identity4) == 1


def test_permanent_zero_fast_paths():
    zero_row = IntMatrix([[0, 0], [1, 2]])
    assert ryser(zero_row) == 0
    zero_col = IntMatrix([[0, 1], [0, 2]])
    assert ryser(zero_col) == 0


def test_permanent_ryser_matches_expansion():
    # entries in [-3, 3], and entries of +-10^30 that no machine word holds
    rng = random.Random(11)
    negative_odd = 0
    for n in range(0, 11):
        for lo, hi in ((-3, 3), (-(10**30), 10**30)):
            for _ in range(20 if n <= 7 else 1):
                if n == 10 and hi > 3:
                    continue  # expansion takes seconds on a dense n = 10 matrix
                m = random_matrix(n, rng, lo, hi)
                value = ryser(m)
                assert value == permanent_expansion(m), m
                negative_odd += n % 2 == 1 and value < 0
    assert negative_odd > 0
    for n in range(1, 10):
        minus_identity = IntMatrix([[-int(i == j) for j in range(n)] for i in range(n)])
        assert ryser(minus_identity) == (-1) ** n


def test_permanent_ryser_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for n in range(1, 9):
        for _ in range(3):
            m = random_matrix(n, rng)
            assert ryser(m) == sympy.Matrix(m.rows).per()


def test_permanent_ryser_cyclic_closed_forms_past_one_block():
    for n in (11, 12, 15, 18):
        g = strong_power_graph(make_cyclic(n))
        assert permanent_ryser(adjacency(g)) == cyclic_adjacency_permanent(n)
        assert permanent_ryser(laplacian(g)) == cyclic_laplacian_permanent(n)
        # the equal quotient read off the whole matrix gives the same value
        assert ryser(laplacian_matrix(g)) == cyclic_laplacian_permanent(n)


def test_permanent_ryser_past_two_to_the_64():
    # per(L(K_20)) needs more than a machine word
    expected = complete_graph_laplacian_permanent(20)
    assert expected.bit_length() > 64
    assert permanent_ryser(laplacian(complete_graph(20))) == expected


def rank_one(n):
    """u v^T for u_i = i + 1, v_j = j + 2: its diagonal entries differ, so
    it has n singleton twin classes, and per(u v^T) = n! prod u_i prod v_j."""
    return IntMatrix(np.outer(np.arange(1, n + 1), np.arange(2, n + 2)))


def test_permanent_guards():
    # without twins the grouped sum has 2^n terms: 2^15 fit the budget,
    # 2^16 do not; a zero row still gives 0 past that, and past
    # RYSER_LIMIT nothing is computed
    m = rank_one(15)
    assert len(matrix_quotient(m)[0]) == 15
    assert ryser(m) == math.factorial(15) ** 2 * math.factorial(16)
    assert ryser(rank_one(12)) == math.factorial(12) ** 2 * math.factorial(13)
    # a refused quotient is refused with the same message on every call
    past_budget = matrix_quotient(rank_one(16))
    for _ in range(2):
        with pytest.raises(SizeGuardError, match=(
                r"^permanent_ryser: order 16 has 16 twin classes, which give 65536 "
                r"grouped terms, past the budget of 40000$")):
            permanent_ryser(past_budget)
    assert ryser(IntMatrix([[0] * 25 for _ in range(25)])) == 0
    # a zero row or column of a quotient without twins, past the budget
    rows = [[i + j + 1 for j in range(16)] for i in range(16)]
    for zero in (lambda r, i: r[3].__setitem__(i, 0), lambda r, i: r[i].__setitem__(3, 0)):
        m = [list(row) for row in rows]
        for i in range(16):
            zero(m, i)
        assert len(matrix_quotient(IntMatrix(m))[0]) >= 15
        assert ryser(IntMatrix(m)) == 0
    limit = permanents.RYSER_LIMIT
    for past_limit in (((limit + 1,), ((0,),), (0,)), laplacian(complete_graph(limit + 1))):
        for _ in range(2):
            with pytest.raises(SizeGuardError, match=f"^permanent_ryser is bounded at order "
                                                     f"{limit}, got {limit + 1}$"):
                permanent_ryser(past_limit)
    assert permanent_ryser(laplacian(complete_graph(limit))) == complete_graph_laplacian_permanent(limit)
    with pytest.raises(SizeGuardError):
        permanent_expansion(IntMatrix([[0] * 11 for _ in range(11)]))


def test_permanent_ryser_closed_forms_past_order_24():
    for n in range(25, 65):
        g = strong_power_graph(make_cyclic(n))
        assert permanent_ryser(adjacency(g)) == cyclic_adjacency_permanent(n), n
        assert permanent_ryser(laplacian(g)) == cyclic_laplacian_permanent(n), n
    for n in range(25, 193):
        g = complete_graph(n)
        noncyclic = clique_plus_vertex_adjacency_permanent(*clique_plus_vertex_shape(n, False))
        assert permanent_ryser(adjacency(g)) == noncyclic
        assert permanent_ryser(laplacian(g)) == complete_graph_laplacian_permanent(n), n


def test_clique_params_validation():
    assert clique_plus_vertex_shape(6, True) == (2, 3)
    assert clique_plus_vertex_shape(5, True) == (4, 0)
    assert clique_plus_vertex_shape(6, False) == (0, 5)
    with pytest.raises(ValueError, match="group order must be >= 2"):
        clique_plus_vertex_shape(1, True)
    for form in (clique_plus_vertex_adjacency_permanent, clique_plus_vertex_laplacian_permanent):
        for m, n in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError, match="clique parameters must be nonnegative"):
                form(m, n)


def test_clique_adjacency_permanent_matches_ryser():
    for m in range(0, 5):
        for n in range(0, 5):
            if m + n == 0:
                continue
            g = clique_plus_vertex_graph(m, n)
            assert clique_plus_vertex_adjacency_permanent(m, n) == permanent_ryser(adjacency(g))


def test_clique_laplacian_permanent_matches_ryser():
    for m in range(0, 5):
        for n in range(0, 5):
            if m + n == 0:
                continue
            g = clique_plus_vertex_graph(m, n)
            assert clique_plus_vertex_laplacian_permanent(m, n) == permanent_ryser(laplacian(g))


def test_adjacency_permanent_formula_cyclic():
    expected = {
        2: 0,
        3: 0,
        4: 1,
        5: 0,
        6: 93,
        7: 0,
        8: 2649,
        9: 7946,
        10: 407905,
        12: 71019921,
    }
    for n, value in expected.items():
        assert cyclic_adjacency_permanent(n) == value
    for n in range(2, 13):
        g = strong_power_graph(make_cyclic(n))
        assert cyclic_adjacency_permanent(n) == permanent_ryser(adjacency(g))


def test_laplacian_permanent_formula_cyclic():
    expected = {
        4: 22,
        6: 9288,
        8: 2036328,
        9: 23156160,
        10: 1774854000,
        12: 1960022840832,
    }
    for n, value in expected.items():
        assert cyclic_laplacian_permanent(n) == value
    for n in range(2, 13):
        g = strong_power_graph(make_cyclic(n))
        assert cyclic_laplacian_permanent(n) == permanent_ryser(laplacian(g))


def transcribed_laplacian_permanent(m, n):
    """clique_plus_vertex_laplacian_permanent as its docstring displays it,
    every binomial and power evaluated inside F_r."""
    d = m + n - 1

    def comb(a, b):
        return math.comb(a, b) if 0 <= b <= a else 0

    def f_r(r):
        acc = 0
        for i in range(r):
            j = r - 1 - i
            bracket = (
                n * comb(n - 1, j)
                + n * (n - 1) * comb(n - 2, j)
                - (d - m + 1) * (m + n - r + 1) * comb(n, j)
            )
            acc += comb(m, i) * (d + 2) ** j * (d + 1) ** i * bracket
        return acc

    total = sum(
        (-1) ** (m + n - r) * math.factorial(m + n - r) * f_r(r) for r in range(1, m + n + 1)
    )
    tail = sum(
        comb(m, i) * comb(n, m + n - i) * (d + 2) ** (m + n - i) * (d + 1) ** i
        for i in range(m + n + 1)
    )
    return total + (d - m + 1) * tail


def test_laplacian_permanent_tables_match_transcription():
    for order in range(2, 61):
        for cyclic in (True, False):
            p = clique_plus_vertex_shape(order, cyclic)
            assert clique_plus_vertex_laplacian_permanent(*p) == transcribed_laplacian_permanent(*p)
    for m in range(6):
        for n in range(6):
            expected = transcribed_laplacian_permanent(m, n)
            assert clique_plus_vertex_laplacian_permanent(m, n) == expected


def test_formula_forms_agree_cyclic():
    # Z_n's graph is the clique-plus-vertex graph at clique_plus_vertex_shape(n,
    # True); a noncyclic group's is K_n, whose Laplacian permanent has its own
    # form. The shape is computed from (n, cyclic) alone, and equals the one
    # read off the built graph.
    for n in range(2, 13):
        m, k = clique_plus_vertex_shape(n, True)
        assert graph_isomorphic(clique_plus_vertex_graph(m, k), strong_power_graph(make_cyclic(n)))
        assert clique_plus_vertex_laplacian_permanent(
            *clique_plus_vertex_shape(n, False)
        ) == complete_graph_laplacian_permanent(n)
    groups = [(make_cyclic(n), True) for n in range(2, 257)]
    groups += [(grp, False) for _, grp in noncyclic_corpus()]
    for grp, cyclic in groups:
        most = _clique_shape(strong_power_graph(grp))
        assert clique_plus_vertex_shape(grp.n, cyclic) == (most, grp.n - 1 - most), (grp.n, cyclic)


def test_complete_graph_laplacian_permanent():
    assert complete_graph_laplacian_permanent(2) == 2
    assert complete_graph_laplacian_permanent(4) == 120
    for n in range(1, 10):
        assert complete_graph_laplacian_permanent(n) == permanent_ryser(
            laplacian(complete_graph(n))
        )
    with pytest.raises(ValueError):
        complete_graph_laplacian_permanent(0)


def test_permanent_cyclic_14_formula_value():
    # beyond quick hand checks but still within the Ryser bound
    g = strong_power_graph(make_cyclic(14))
    assert cyclic_adjacency_permanent(14) == 9251279149
    assert permanent_ryser(adjacency(g)) == 9251279149
