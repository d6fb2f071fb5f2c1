import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpow import permanents, spectral
from strongpow.errors import SizeGuardError
from strongpow.formulas import (
    CharPoly,
    ExactSpectrum,
    algebraic_connectivity,
    char_poly_from_spectrum,
    closed_form_spectrum,
    euler_phi,
    laplacian_energy_closed_form,
    laplacian_energy_from_spectrum,
    spanning_tree_count_formula,
)
from strongpow.graphs import (
    complete_graph,
    graph_from_edges,
    graph_to_matrix_market,
    strong_power_graph,
    twin_quotient,
)
from strongpow.groups import make_cyclic, make_dihedral, noncyclic_corpus
from strongpow.permanents import permanent_ryser
from strongpow.spectral import (
    char_poly_exact,
    eigenvalues_numeric,
    laplacian,
    spanning_tree_count_kirchhoff,
)

from reference import (
    IntMatrix,
    det_bareiss,
    disjoint_union,
    laplacian_matrix,
    matrix_market_text,
    matrix_quotient,
    permanent_expansion,
)


def random_symmetric(n, rng, lo=-4, hi=4):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            rows[i][j] = v
            rows[j][i] = v
    return IntMatrix(rows)


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.n == 2
    assert m.trace() == 5
    assert not m.is_symmetric()
    assert IntMatrix([[0, 1], [1, 0]]).is_symmetric()


def test_char_poly_type():
    with pytest.raises(ValueError):
        CharPoly((1, 2))
    p = CharPoly((0, -12, 19, -8, 1))
    assert p.degree == 4
    assert p.evaluate(0) == 0
    assert p.evaluate(1) == 0
    assert str(p) == "x^4 - 8x^3 + 19x^2 - 12x"


def test_exact_spectrum_type():
    with pytest.raises(ValueError):
        ExactSpectrum(((1, 2), (3, 1)))
    with pytest.raises(ValueError):
        ExactSpectrum(((3, 0),))
    s = ExactSpectrum.from_pairs([(0, 1), (4, 1), (4, 2), (7, 0)])
    assert s.pairs == ((4, 3), (0, 1))
    assert s.n == 4
    assert s.eigenvalues_desc() == [4, 4, 4, 0]
    assert s.trace() == 12


def test_int_matrix_rows_are_immutable_and_exact():
    # entries of any size stay exact Python ints, held in tuples
    for edge in ((2**63 - 1) // 3, 2**63, 10**40):
        for v in (edge, -edge):
            m = IntMatrix([[v, 0, 0], [0, 1, 0], [0, 0, v]])
            assert m.rows == ((v, 0, 0), (0, 1, 0), (0, 0, v))
            assert all(type(row) is tuple for row in m.rows)
            assert m.trace() == 2 * v + 1
            with pytest.raises(TypeError):
                m.rows[0][0] = 0
    assert IntMatrix([]).n == 0
    # numpy integers become Python ints; floats are refused, not truncated
    m = IntMatrix(np.array([[2**62, 0], [0, 2**63 - 1]], dtype=np.int64))
    assert m.rows == ((2**62, 0), (0, 2**63 - 1))
    assert all(type(x) is int for row in m.rows for x in row)
    assert 2 * m.rows[0][0] == 2**63
    with pytest.raises(TypeError):
        IntMatrix([[1.0]])


def test_int_matrix_backings_agree():
    rng = random.Random(5)
    cases = [[[1, 2], [3, 4]], [[0, -1], [-1, 0]], [[7]], []]
    for n in (3, 6):
        for entry in RANDOM_ENTRIES:
            cases.append(random_square(n, rng, entry).rows)
            cases.append(random_symmetric(n, rng, -10**30, 10**30).rows)
    for rows in cases:
        # nested Python rows, and an object array of the same values built
        # separately, so that large entries are distinct int objects
        a = IntMatrix(rows)
        b = IntMatrix(np.array([[int(str(v)) for v in row] for row in rows],
                               dtype=object).reshape(len(rows), len(rows)))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a.rows == b.rows
        assert a.trace() == b.trace()
        assert a.is_symmetric() == b.is_symmetric()
        assert matrix_market_text(a) == matrix_market_text(b)
        assert matrix_quotient(a) == matrix_quotient(b)
        values = []
        for m in (a, b):
            spectral._twin_factors.cache_clear()
            permanents._ryser_grouped.cache_clear()
            values.append((char_poly_exact(matrix_quotient(m)), permanent_ryser(matrix_quotient(m))))
        assert values[0] == values[1]
        assert values[0][0].evaluate(0) == (-1) ** a.n * det_bareiss(a)
        if a.n <= 6:
            assert values[0][1] == permanent_expansion(a)
    assert IntMatrix([[1, 2], [3, 4]]) != IntMatrix([[1, 2], [3, 5]])
    assert IntMatrix([[1]]) != IntMatrix([[1, 0], [0, 0]])


NEIGHBOURHOOD_SIZES = (0, 1, 7, 8, 9, 63, 64, 65)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NEIGHBOURHOOD_SIZES), st.randoms(use_true_random=False),
       st.floats(0, 1))
def test_laplacian_and_adjacency_match_bit_probes(n, rng, density):
    # the mask readers, the twin quotient and the Matrix Market export,
    # against the matrices of bit probes, across byte and word boundaries
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < density])
    adj = [[(g.adj[u] >> w) & 1 for w in range(n)] for u in range(n)]
    lap = [[sum(row) if w == u else -b for w, b in enumerate(row)]
           for u, row in enumerate(adj)]
    for is_lap, rows in ((False, adj), (True, lap)):
        m = IntMatrix(rows)
        assert twin_quotient(g, is_lap) == matrix_quotient(m)
        assert "".join(graph_to_matrix_market(g, is_lap)) == matrix_market_text(m)
    assert laplacian(g) == twin_quotient(g, True)


def test_laplacian_and_adjacency_matrices():
    g = strong_power_graph(make_cyclic(4))
    assert laplacian_matrix(g).rows == (
        (1, 0, -1, 0),
        (0, 2, -1, -1),
        (-1, -1, 3, -1),
        (0, -1, -1, 2),
    )
    # classes {0}, {1, 3} (the generators, adjacent) and {2}
    assert twin_quotient(g, False) == ((1, 2, 1), ((0, 0, 1), (0, 1, 1), (1, 1, 0)), (0, 0, 0))
    assert twin_quotient(g, True) == (
        (1, 2, 1), ((1, 0, -1), (0, -1, -1), (-1, -1, 3)), (1, 2, 3))


def test_det_bareiss():
    assert det_bareiss(IntMatrix([[2, 0], [0, 3]])) == 6
    assert det_bareiss(IntMatrix([[1, 2], [3, 4]])) == -2
    assert det_bareiss(IntMatrix([[0]])) == 0
    singular = IntMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert det_bareiss(singular) == 0
    rng = random.Random(3)
    wide = random_symmetric(10, rng, lo=-9, hi=9)
    assert det_bareiss(wide) == (-1) ** 10 * char_poly_exact(matrix_quotient(wide)).evaluate(0)


def test_char_poly_exact_cyclic_4():
    g = strong_power_graph(make_cyclic(4))
    assert char_poly_exact(laplacian(g)).coeffs == (0, -12, 19, -8, 1)


def shifted(m, t):
    """tI - M."""
    return IntMatrix(
        [[(t if i == j else 0) - v for j, v in enumerate(row)] for i, row in enumerate(m.rows)]
    )


def assert_char_poly_at_points(m):
    # n + 1 points pin down a degree-n polynomial
    p = char_poly_exact(matrix_quotient(m))
    assert p.degree == m.n
    for t in range(-(m.n // 2), m.n - m.n // 2 + 1):
        assert p.evaluate(t) == det_bareiss(shifted(m, t)), (m, t)


def random_square(n, rng, entry):
    return IntMatrix([[entry(rng) for _ in range(n)] for _ in range(n)])


RANDOM_ENTRIES = (
    lambda rng: rng.randint(-3, 3),
    lambda rng: rng.choice((-1, 1)) * 10**30 + rng.randint(-3, 3),
    lambda rng: rng.randint(-3, 3) if rng.random() < 0.5 else 0,
)


def test_char_poly_exact_matches_direct_determinant():
    rng = random.Random(7)
    for n in range(13):
        for entry in RANDOM_ENTRIES:
            assert_char_poly_at_points(random_square(n, rng, entry))
    for _ in range(12):
        m = random_symmetric(rng.randint(1, 6), rng)
        assert det_bareiss(m) == (-1) ** m.n * char_poly_exact(matrix_quotient(m)).evaluate(0)


def test_char_poly_exact_pivot_branches():
    # structured inputs, each a pivot case for an elimination: zero and
    # diagonal matrices, a permutation, blocks, a zero subdiagonal entry and
    # large multiples of one value
    big = 10**9 + 7
    cases = {
        "zero": IntMatrix([[0] * 5 for _ in range(5)]),
        "diagonal": IntMatrix([[(i - 2) * (i == j) for j in range(5)] for i in range(5)]),
        # column 0's only nonzero is in the last row
        "cyclic permutation": IntMatrix(
            [[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)]
        ),
        # column 1 has no nonzero below row 2
        "block diagonal": IntMatrix(
            [
                [1, 2, 0, 0, 0],
                [3, 4, 0, 0, 0],
                [0, 0, 5, 6, 7],
                [0, 0, 8, 9, 1],
                [0, 0, 2, 3, 4],
            ]
        ),
        # a zero subdiagonal entry with a nonzero below it
        "zero subdiagonal": IntMatrix([[1, 2, 3, 4], [0, 4, 5, 6], [6, 7, 8, 9], [1, 0, 2, 5]]),
        "multiples of one value in one column": IntMatrix(
            [[1, 2, 3, 4], [big, 4, 5, 6], [-2 * big, 7, 8, 9], [3 * big, 0, 2, 5]]
        ),
        "large subdiagonal entries": IntMatrix(
            [[1, 2, 3, 4, 0], [big + 4, 4, 5, 6, 1], [big, 7, 8, 9, 2], [1, 0, 2, 5, 3],
             [3, 1, 0, 2, 6]]
        ),
        "multiples of one value": IntMatrix(
            [[big * ((3 * i + j) % 5 - 2) for j in range(5)] for i in range(5)]
        ),
    }
    for m in cases.values():
        assert_char_poly_at_points(m)
    assert char_poly_exact(matrix_quotient(cases["zero"])).coeffs == (0, 0, 0, 0, 0, 1)
    assert char_poly_exact(matrix_quotient(cases["cyclic permutation"])).coeffs == (
        -1, 0, 0, 0, 0, 0, 1)


def test_char_poly_exact_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for n in range(1, 9):
        for entry in RANDOM_ENTRIES:
            m = random_square(n, rng, entry)
            expected = sympy.Matrix(m.rows).charpoly().all_coeffs()[::-1]
            assert char_poly_exact(matrix_quotient(m)).coeffs == tuple(int(c) for c in expected)


@st.composite
def small_matrices(draw):
    n = draw(st.integers(0, 6))
    entries = st.integers(-20, 20)
    return IntMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])


@settings(max_examples=80, deadline=None)
@given(small_matrices(), st.integers(-30, 30))
def test_char_poly_exact_evaluates_to_determinant(m, t):
    assert char_poly_exact(matrix_quotient(m)).evaluate(t) == det_bareiss(shifted(m, t))


def test_char_poly_exact_repeat_is_cached(monkeypatch):
    spectral._twin_factors.cache_clear()
    g = strong_power_graph(make_cyclic(20))
    m = laplacian(g)
    first = char_poly_exact(m)
    hits = spectral._twin_factors.cache_info().hits
    # equal quotients built apart share the memoized factors
    assert char_poly_exact(matrix_quotient(laplacian_matrix(g))) == first
    assert char_poly_exact(laplacian(strong_power_graph(make_cyclic(20)))) == first
    assert spectral._twin_factors.cache_info().hits == hits + 2

    # tau reads the factors the char poly was multiplied out from
    def refuse(a):
        raise AssertionError("the quotient's char poly was computed again")

    monkeypatch.setattr(spectral, "_char_poly_faddeev", refuse)
    tau = spanning_tree_count_kirchhoff(m)
    assert tau == spanning_tree_count_formula(20, True)
    assert (-1) ** 19 * first.coeffs[1] == 20 * tau


def test_refused_char_poly_is_never_memoized():
    spectral._twin_factors.cache_clear()
    past = laplacian(strong_power_graph(make_cyclic(257)))
    for _ in range(2):
        with pytest.raises(SizeGuardError, match="^char_poly_exact is bounded at order 256, got 257$"):
            char_poly_exact(past)
        assert spectral._twin_factors.cache_info().currsize == 0
    # the next allowed quotient is still computed, and memoized
    at_bound = laplacian(strong_power_graph(make_cyclic(256)))
    assert char_poly_exact(at_bound) == char_poly_from_spectrum(closed_form_spectrum(256, True))
    assert spectral._twin_factors.cache_info().currsize == 1


def cycle(n):
    """C_n: past n = 4 no two vertices are twins."""
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def cycle_laplacian(n):
    return laplacian(cycle(n))


def test_char_poly_exact_guard():
    with pytest.raises(SizeGuardError, match="^char_poly_exact is bounded at order 256, got 257$"):
        char_poly_exact(matrix_quotient(IntMatrix([[0] * 257 for _ in range(257)])))
    # the quotient is bounded at 32 twin classes, for tau as well
    at_bound = cycle_laplacian(32)
    assert len(at_bound[0]) == spectral.TWIN_CLASS_LIMIT == 32
    poly = char_poly_exact(at_bound)
    for t in (-1, 0, 1, 4):
        assert poly.evaluate(t) == det_bareiss(shifted(laplacian_matrix(cycle(32)), t))
    assert spanning_tree_count_kirchhoff(at_bound) == 32
    for oracle in (char_poly_exact, spanning_tree_count_kirchhoff):
        with pytest.raises(SizeGuardError, match=(
                "^the exact char poly is bounded at 32 twin classes, got 33$")):
            oracle(cycle_laplacian(33))


def test_closed_form_spectrum_examples():
    assert closed_form_spectrum(4, True).pairs == ((4, 1), (3, 1), (1, 1), (0, 1))
    # prime order: n - phi - 1 = 0, so the middle eigenvalues merge away
    assert closed_form_spectrum(5, True).pairs == ((4, 3), (0, 2))
    assert closed_form_spectrum(2, True).pairs == ((0, 2),)
    assert closed_form_spectrum(4, False).pairs == ((4, 3), (0, 1))
    assert closed_form_spectrum(9, True).pairs == ((9, 2), (8, 5), (2, 1), (0, 1))


def test_eigenvalues_numeric_reads_the_whole_laplacian():
    # the float Laplacian packed from the masks gives eigvalsh the same
    # input, so the same output, as the whole integer matrix converted
    graphs = [strong_power_graph(make_cyclic(n)) for n in (1, 2, 12, 64, 65, 97)]
    graphs += [strong_power_graph(make_dihedral(6)), cycle(9), complete_graph(3)]
    for g in graphs:
        whole = np.array(laplacian_matrix(g).rows, dtype=np.float64)
        assert eigenvalues_numeric(g) == np.linalg.eigvalsh(whole).tolist()


def test_closed_form_spectrum_matches_numeric():
    for n in range(2, 21):
        g = strong_power_graph(make_cyclic(n))
        expected = closed_form_spectrum(n, True).eigenvalues_desc()[::-1]
        numeric = eigenvalues_numeric(g)
        assert len(numeric) == len(expected)
        assert max(abs(a - b) for a, b in zip(numeric, expected)) < 1e-8
    for _, grp in noncyclic_corpus(12):
        g = strong_power_graph(grp)
        expected = closed_form_spectrum(grp.n, False).eigenvalues_desc()[::-1]
        numeric = eigenvalues_numeric(g)
        assert max(abs(a - b) for a, b in zip(numeric, expected)) < 1e-8


def test_closed_form_char_poly_matches_exact():
    # 160 lies past the guard of 128 that an O(n^4) kernel needed
    for n in (*range(1, 13), 64, 97, 128, 160):
        g = strong_power_graph(make_cyclic(n))
        stated = char_poly_from_spectrum(closed_form_spectrum(n, True))
        assert stated.coeffs == char_poly_exact(laplacian(g)).coeffs


def test_char_poly_from_spectrum():
    s = ExactSpectrum(((3, 1), (1, 1), (0, 2)))
    p = char_poly_from_spectrum(s)
    assert p.degree == 4
    for t in range(-2, 5):
        assert p.evaluate(t) == t * t * (t - 3) * (t - 1)
    # x (x-n)^{n-phi-1} (x-(n-phi-1)) (x-(n-1))^{phi-1} at n = 6, phi = 2
    six = char_poly_from_spectrum(closed_form_spectrum(6, True))
    for t in range(-2, 8):
        assert six.evaluate(t) == t * (t - 6) ** 3 * (t - 3) * (t - 5)


def test_algebraic_connectivity():
    assert algebraic_connectivity(closed_form_spectrum(6, True)) == 3
    assert algebraic_connectivity(closed_form_spectrum(5, True)) == 0
    assert algebraic_connectivity(closed_form_spectrum(4, False)) == 4
    assert algebraic_connectivity(ExactSpectrum(((0, 3),))) == 0


def test_spanning_tree_count():
    assert spanning_tree_count_formula(4, True) == 3
    assert spanning_tree_count_formula(6, True) == 540
    assert spanning_tree_count_formula(9, True) == 589824
    assert spanning_tree_count_formula(5, True) == 0
    assert spanning_tree_count_formula(4, False) == 16
    assert spanning_tree_count_formula(1, True) == spanning_tree_count_formula(1, False) == 1
    for n in range(2, 17):
        g = strong_power_graph(make_cyclic(n))
        assert spanning_tree_count_formula(n, True) == spanning_tree_count_kirchhoff(laplacian(g))
    for _, grp in noncyclic_corpus(16):
        g = strong_power_graph(grp)
        assert spanning_tree_count_formula(grp.n, False) == spanning_tree_count_kirchhoff(laplacian(g))
    assert spanning_tree_count_kirchhoff(laplacian(complete_graph(4))) == 16
    # tau is bounded by the number of twin classes, not by the order: C_257
    # has 257 singletons, K_257 one class
    with pytest.raises(SizeGuardError, match="twin classes, got 257$"):
        spanning_tree_count_kirchhoff(cycle_laplacian(257))
    assert spanning_tree_count_kirchhoff(laplacian(complete_graph(257))) == 257 ** 255
    # not a Laplacian: rows that do not sum to zero, or not symmetric
    for m in ([[1, 0], [0, 1]], [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]):
        with pytest.raises(ValueError, match="expected a Laplacian"):
            spanning_tree_count_kirchhoff(matrix_quotient(IntMatrix(m)))


def test_spanning_tree_count_past_256_vertices():
    for n in (257, 300, 1024):
        lap = laplacian(strong_power_graph(make_cyclic(n)))
        assert spanning_tree_count_kirchhoff(lap) == spanning_tree_count_formula(n, True), n
    lap = laplacian(strong_power_graph(make_dihedral(200)))
    assert spanning_tree_count_kirchhoff(lap) == spanning_tree_count_formula(400, False)


def reduced_laplacian_determinant(graph):
    """Kirchhoff's count as Bareiss's determinant of L with row and column 0
    deleted."""
    rows = laplacian_matrix(graph).rows
    return det_bareiss(IntMatrix([row[1:] for row in rows[1:]]))


def test_spanning_tree_count_matches_bareiss():
    graphs = [strong_power_graph(make_cyclic(n)) for n in range(1, 41)]
    graphs += [strong_power_graph(grp) for _, grp in noncyclic_corpus(24)]
    graphs += [complete_graph(n) for n in range(1, 13)]
    for g in graphs:
        assert spanning_tree_count_kirchhoff(laplacian(g)) == reduced_laplacian_determinant(g), g.n
    # Cayley's formula
    for n in range(2, 13):
        assert spanning_tree_count_kirchhoff(laplacian(complete_graph(n))) == n ** (n - 2)


def test_spanning_tree_count_disconnected():
    # at a prime order the identity is joined to nothing
    for p in (2, 3, 5, 7, 31, 61, 127, 251):
        assert spanning_tree_count_kirchhoff(laplacian(strong_power_graph(make_cyclic(p)))) == 0
    for g in (
        graph_from_edges(2, []),
        disjoint_union(complete_graph(3), complete_graph(4)),
        disjoint_union(strong_power_graph(make_cyclic(9)), complete_graph(1)),
    ):
        assert spanning_tree_count_kirchhoff(laplacian(g)) == 0 == reduced_laplacian_determinant(g)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])


@settings(max_examples=120, deadline=None)
@given(random_graphs())
def test_spanning_tree_count_matches_bareiss_property(g):
    assert spanning_tree_count_kirchhoff(laplacian(g)) == reduced_laplacian_determinant(g)


def test_spanning_tree_count_reach():
    # past the 64-vertex bound that a Bareiss minor determinant needed
    for n in (*range(65, 71), 97, 128, 256):
        g = strong_power_graph(make_cyclic(n))
        assert spanning_tree_count_kirchhoff(laplacian(g)) == spanning_tree_count_formula(n, True), n


def test_laplacian_energy_from_spectrum():
    g = strong_power_graph(make_cyclic(4))
    s = closed_form_spectrum(4, True)
    assert laplacian_energy_from_spectrum(s, g.edge_count(), 4) == Fraction(6)
    g6 = strong_power_graph(make_cyclic(6))
    s6 = closed_form_spectrum(6, True)
    assert laplacian_energy_from_spectrum(s6, g6.edge_count(), 6) == Fraction(34, 3)


def test_laplacian_energy_closed_form_disagrees_for_cyclic():
    # definition-based values differ from the stated cyclic closed form
    assert laplacian_energy_closed_form(4, True) == Fraction(4)
    assert laplacian_energy_closed_form(6, True) == Fraction(26, 3)
    # n = 2 gives the empty graph on two vertices: both sides are 0
    assert laplacian_energy_closed_form(2, True) == Fraction(0)
    s2 = closed_form_spectrum(2, True)
    assert laplacian_energy_from_spectrum(s2, 0, 2) == Fraction(0)
    for n in range(3, 25):
        g = strong_power_graph(make_cyclic(n))
        s = closed_form_spectrum(n, True)
        true_val = laplacian_energy_from_spectrum(s, g.edge_count(), n)
        stated = laplacian_energy_closed_form(n, True)
        phi = euler_phi(n)
        assert true_val == Fraction(2 * (n - 1)) + Fraction(2 * phi * (n - 4), n)
        assert true_val - stated == Fraction(2 * phi * (n - 2), n)


def test_laplacian_energy_closed_form_noncyclic_agrees():
    for _, grp in noncyclic_corpus(16):
        g = strong_power_graph(grp)
        s = closed_form_spectrum(grp.n, False)
        assert laplacian_energy_from_spectrum(
            s, g.edge_count(), grp.n
        ) == laplacian_energy_closed_form(grp.n, False)
        assert laplacian_energy_closed_form(grp.n, False) == Fraction(2 * (grp.n - 1))


def test_to_matrix_market_symmetric():
    g = strong_power_graph(make_cyclic(4))
    expected = (
        "%%MatrixMarket matrix coordinate integer symmetric\n"
        "4 4 8\n"
        "1 1 1\n"
        "2 2 2\n"
        "3 1 -1\n"
        "3 2 -1\n"
        "3 3 3\n"
        "4 2 -1\n"
        "4 3 -1\n"
        "4 4 2\n"
    )
    assert "".join(graph_to_matrix_market(g, True)) == expected
    assert "".join(graph_to_matrix_market(g, False)) == (
        "%%MatrixMarket matrix coordinate integer symmetric\n"
        "4 4 4\n"
        "3 1 1\n"
        "3 2 1\n"
        "4 2 1\n"
        "4 3 1\n"
    )


def test_closed_form_input_validation():
    with pytest.raises(ValueError):
        closed_form_spectrum(0, True)
    with pytest.raises(ValueError):
        spanning_tree_count_formula(0, True)
    with pytest.raises(ValueError):
        laplacian_energy_closed_form(1, True)
