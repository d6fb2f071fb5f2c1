import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpow.errors import SizeGuardError
from strongpow.graphs import (
    Graph,
    chromatic_number_exact,
    complete_graph,
    disjoint_union,
    graph_from_edges,
    graph_isomorphic,
    induced_subgraph,
    is_regular,
    star_graph,
    strong_power_graph,
)
from strongpow.groups import (
    euler_phi,
    make_cyclic,
    make_klein,
    make_symmetric,
    noncyclic_corpus,
)
from strongpow.structure import (
    ConnectionSet,
    ForbiddenPatternSet,
    beineke_patterns,
    cayley_classification,
    cayley_graph,
    chi_formula,
    contains_induced,
    cyclic_line_graph_classification,
    cyclic_line_graph_root,
    full_connection_set,
    is_line_graph,
    kappa_formula,
    line_graph_construct,
    line_graph_root,
    root_graph_search,
)

from reference import vertex_connectivity_bruteforce


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_beineke_patterns_shape():
    pats = list(beineke_patterns())
    assert len(pats) == 9
    claw = pats[0]
    assert claw.n == 4
    assert graph_isomorphic(claw, star_graph(3))
    assert all(4 <= p.n <= 6 for p in pats)
    # pairwise non-isomorphic
    for i in range(9):
        for j in range(i + 1, 9):
            assert not graph_isomorphic(pats[i], pats[j])


def test_forbidden_pattern_set_validation():
    with pytest.raises(ValueError):
        ForbiddenPatternSet((complete_graph(4),) * 8)
    bad = (complete_graph(3),) + tuple(beineke_patterns())[1:]
    with pytest.raises(ValueError):
        ForbiddenPatternSet(bad)


def test_patterns_are_minimal_non_line_graphs():
    # each pattern has no root graph, yet every single-vertex deletion does
    for p in beineke_patterns():
        assert root_graph_search(p) is None
        for v in range(p.n):
            rest = [u for u in range(p.n) if u != v]
            assert root_graph_search(induced_subgraph(p, rest)) is not None


def test_contains_induced():
    k5 = complete_graph(5)
    assert contains_induced(k5, complete_graph(3))
    assert not contains_induced(star_graph(3), complete_graph(3))
    assert contains_induced(star_graph(3), star_graph(3))
    assert not contains_induced(complete_graph(3), star_graph(3))
    # K_5 minus an edge sits inside the strong power graph of Z_12
    g12 = strong_power_graph(make_cyclic(12))
    k5_minus = graph_from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    )
    assert contains_induced(g12, k5_minus)
    assert not contains_induced(path_graph(4), star_graph(3))
    with pytest.raises(SizeGuardError):
        contains_induced(complete_graph(8), complete_graph(7))


def test_is_line_graph_spots():
    assert is_line_graph(strong_power_graph(make_cyclic(9)))
    assert not is_line_graph(strong_power_graph(make_cyclic(6)))
    assert not is_line_graph(strong_power_graph(make_cyclic(12)))
    for k in range(1, 9):
        assert is_line_graph(complete_graph(k))
    assert is_line_graph(cycle_graph(5))
    assert not is_line_graph(star_graph(3))
    # is_line_graph has no size guard
    assert is_line_graph(complete_graph(41))
    assert is_line_graph(strong_power_graph(make_cyclic(41)))


def test_line_graph_recognizer_matches_classification():
    for n in range(2, 31):
        g = strong_power_graph(make_cyclic(n))
        assert is_line_graph(g) == cyclic_line_graph_classification(n)


def beineke_free(g):
    return not any(contains_induced(g, p) for p in beineke_patterns())


def assert_certified(g, found):
    """The root's edge map reproduces g exactly: distinct edges, and two
    vertices adjacent iff their edges share an endpoint."""
    root, edge_of = found
    assert len(edge_of) == g.n
    assert len(set(edge_of)) == g.n
    for a, b in edge_of:
        assert a < b and root.has_edge(a, b)
    assert root.edge_count() == g.n
    for v in range(g.n):
        for w in range(v + 1, g.n):
            shared = bool(set(edge_of[v]) & set(edge_of[w]))
            assert shared == g.has_edge(v, w), (v, w)


def test_line_graph_root_every_small_graph():
    # every labelled graph on at most 5 vertices, against the Beineke search
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            found = line_graph_root(g)
            assert (found is not None) == beineke_free(g), g
            assert is_line_graph(g) == (found is not None)
            if found is not None:
                assert_certified(g, found)


def random_graphs(min_n, max_n):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_n, max_n))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return graph_from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])

    return build()


@settings(max_examples=150, deadline=None)
@given(random_graphs(6, 12))
def test_line_graph_root_matches_beineke(g):
    found = line_graph_root(g)
    assert (found is not None) == beineke_free(g)
    if found is not None:
        assert_certified(g, found)


@settings(max_examples=150, deadline=None)
@given(random_graphs(0, 10))
def test_line_graph_root_of_every_line_graph(h):
    # catches false negatives: L(H) always has a root, and the map rebuilds it
    g = line_graph_construct(h)
    found = line_graph_root(g)
    assert found is not None
    assert_certified(g, found)


def test_line_graph_root_against_networkx():
    nx = pytest.importorskip("networkx")
    for n in list(range(2, 30)) + [37, 49, 60, 61, 64, 67]:
        g = strong_power_graph(make_cyclic(n))
        found = line_graph_root(g)
        graph = nx.Graph(g.edges())
        graph.add_nodes_from(range(g.n))
        expected = True
        for comp in nx.connected_components(graph):
            try:
                nx.inverse_line_graph(graph.subgraph(comp))
            except nx.NetworkXError:
                expected = False
        assert (found is not None) == expected, n
        if found is not None:
            root = nx.Graph(found[0].edges())
            assert nx.is_isomorphic(nx.line_graph(root), graph)


def test_line_graph_root_reach():
    k500 = complete_graph(500)
    assert is_line_graph(k500)
    root, edge_of = line_graph_root(k500)
    assert sorted(root.degree(v) for v in range(root.n)) == [1] * 500 + [500]
    primes = [p for p in range(2, 1022) if euler_phi(p) == p - 1]
    assert len(primes) == 172
    for p in primes:
        assert is_line_graph(strong_power_graph(make_cyclic(p))), p


def test_line_graph_root_needs_its_certificate():
    # every cell grown from the start cell is a clique and no vertex is in
    # three, yet the cells miss edges: only the adjacency check rejects it
    g = graph_from_edges(8, [
        (0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 7), (2, 4),
        (2, 6), (2, 7), (3, 4), (3, 5), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    ])
    assert not beineke_free(g)
    assert line_graph_root(g) is None


def test_line_graph_root_shapes():
    assert line_graph_root(Graph(0, ())) == (Graph(0, ()), ())
    root, edge_of = line_graph_root(Graph(2, (0, 0)))
    assert root.n == 4 and edge_of == ((0, 1), (2, 3))
    # K_3 is L(K_3) and L(K_{1,3}); the rule starts from the whole triangle
    root, _ = line_graph_root(complete_graph(3))
    assert graph_isomorphic(root, star_graph(3))
    root9, _ = line_graph_root(strong_power_graph(make_cyclic(9)))
    assert graph_isomorphic(root9, cyclic_line_graph_root(9))
    assert line_graph_root(star_graph(3)) is None


def test_line_graph_construct():
    assert graph_isomorphic(line_graph_construct(star_graph(4)), complete_graph(4))
    assert graph_isomorphic(line_graph_construct(path_graph(3)), complete_graph(2))
    root5 = disjoint_union(star_graph(4), complete_graph(2))
    assert graph_isomorphic(
        line_graph_construct(root5), strong_power_graph(make_cyclic(5))
    )
    assert line_graph_construct(Graph(3, (0, 0, 0))).n == 0


def test_root_graph_search():
    # K_3 is the line graph of both K_3 and the claw
    root = root_graph_search(complete_graph(3))
    assert root is not None
    assert graph_isomorphic(line_graph_construct(root), complete_graph(3))
    assert root_graph_search(star_graph(3)) is None
    g4 = strong_power_graph(make_cyclic(4))
    root4 = root_graph_search(g4)
    assert root4 is not None
    assert root4.n == 5
    assert graph_isomorphic(line_graph_construct(root4), g4)
    assert root_graph_search(Graph(0, ())).n == 0
    with pytest.raises(SizeGuardError):
        root_graph_search(complete_graph(8))
    with pytest.raises(SizeGuardError):
        root_graph_search(complete_graph(3), max_root_vertices=9)


def test_cyclic_line_graph_classification():
    # the one-vertex graph of Z_1 is L(K_2)
    true_orders = {n for n in range(1, 31) if cyclic_line_graph_classification(n)}
    assert true_orders == {1, 2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 23, 29}
    with pytest.raises(ValueError):
        cyclic_line_graph_classification(0)


def test_cyclic_line_graph_root_round_trips():
    for n in (1, 2, 3, 4, 5, 7, 9, 11):
        root = cyclic_line_graph_root(n)
        g = strong_power_graph(make_cyclic(n))
        assert graph_isomorphic(line_graph_construct(root), g)
    assert cyclic_line_graph_root(1).n == 2
    assert cyclic_line_graph_root(4).n == 5
    assert cyclic_line_graph_root(9).n == 9
    with pytest.raises(ValueError):
        cyclic_line_graph_root(6)


def test_connection_set_validation():
    g = make_cyclic(4)
    with pytest.raises(ValueError):
        ConnectionSet(g, frozenset({0, 1, 3}))
    with pytest.raises(ValueError):
        ConnectionSet(g, frozenset({1}))
    with pytest.raises(ValueError):
        ConnectionSet(g, frozenset({5}))
    ok = ConnectionSet(g, frozenset({1, 3}))
    assert ok.elements == frozenset({1, 3})
    assert full_connection_set(g).elements == frozenset({1, 2, 3})


def test_cayley_graph_examples():
    z4 = make_cyclic(4)
    c4 = cayley_graph(z4, ConnectionSet(z4, frozenset({1, 3})))
    assert graph_isomorphic(c4, cycle_graph(4))
    z5 = make_cyclic(5)
    c5 = cayley_graph(z5, ConnectionSet(z5, frozenset({2, 3})))
    assert graph_isomorphic(c5, cycle_graph(5))
    k = make_klein()
    assert graph_isomorphic(cayley_graph(k, full_connection_set(k)), complete_graph(4))
    s3 = make_symmetric(3)
    witness = cayley_graph(s3, full_connection_set(s3))
    assert graph_isomorphic(witness, strong_power_graph(s3))


def test_cayley_graph_is_regular():
    for _, grp in noncyclic_corpus(12):
        cg = cayley_graph(grp, full_connection_set(grp))
        assert is_regular(cg)
        assert cg.degree(0) == grp.n - 1


def test_cayley_classification():
    assert cayley_classification(make_klein())
    assert not cayley_classification(make_cyclic(6))
    for _, grp in noncyclic_corpus(16):
        assert cayley_classification(grp)
        assert graph_isomorphic(
            strong_power_graph(grp), cayley_graph(grp, full_connection_set(grp))
        ) or grp.n > 12


def test_cyclic_power_graphs_not_regular():
    for n in range(3, 25):
        assert not is_regular(strong_power_graph(make_cyclic(n)))


def test_kappa_formula():
    assert kappa_formula(6, True) == 3
    assert kappa_formula(5, True) == 0
    assert kappa_formula(4, False) == 3
    assert kappa_formula(1, True) == 0
    for n in range(2, 13):
        g = strong_power_graph(make_cyclic(n))
        assert kappa_formula(n, True) == vertex_connectivity_bruteforce(g)
    for _, grp in noncyclic_corpus(12):
        g = strong_power_graph(grp)
        assert kappa_formula(grp.n, False) == vertex_connectivity_bruteforce(g)


def test_chi_formula():
    assert chi_formula(4, False) == 4
    assert chi_formula(4, True) == 3
    assert chi_formula(1, True) == 1
    for n in range(2, 13):
        g = strong_power_graph(make_cyclic(n))
        assert chi_formula(n, True) == chromatic_number_exact(g)
    for _, grp in noncyclic_corpus(12):
        g = strong_power_graph(grp)
        assert chi_formula(grp.n, False) == chromatic_number_exact(g)
