import pytest

from strongpow.errors import SizeGuardError
from strongpow.formulas import (
    cayley_classification,
    chi_formula,
    cyclic_line_graph_classification,
    kappa_formula,
)
from strongpow.graphs import (
    Graph,
    chromatic_number_exact,
    complete_graph,
    graph_from_edges,
    is_complete,
    is_regular,
    strong_power_graph,
)
from strongpow.groups import (
    make_cyclic,
    make_klein,
    make_symmetric,
    noncyclic_corpus,
)
from strongpow.structure import is_line_graph

from reference import (
    BEINEKE_PATTERNS,
    ConnectionSet,
    cayley_graph,
    contains_induced,
    cyclic_line_graph_root,
    disjoint_union,
    full_connection_set,
    graph_isomorphic,
    induced_subgraph,
    line_graph_construct,
    root_graph_search,
    star_graph,
    vertex_connectivity_bruteforce,
)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_beineke_patterns_shape():
    pats = BEINEKE_PATTERNS
    assert len(pats) == 9
    claw = pats[0]
    assert claw.n == 4
    assert graph_isomorphic(claw, star_graph(3))
    assert all(4 <= p.n <= 6 for p in pats)
    # pairwise non-isomorphic
    for i in range(9):
        for j in range(i + 1, 9):
            assert not graph_isomorphic(pats[i], pats[j])


def test_patterns_are_minimal_non_line_graphs():
    # each pattern has no root graph, yet every single-vertex deletion does
    for p in BEINEKE_PATTERNS:
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
    # C_5 is L(C_5), and the claw is no line graph, but neither has a shape
    # that a strong power graph can take
    assert is_line_graph(cycle_graph(5)) is None
    assert is_line_graph(star_graph(3)) is None
    # is_line_graph has no size guard
    assert is_line_graph(complete_graph(41))
    assert is_line_graph(strong_power_graph(make_cyclic(41)))


def test_line_graph_recognizer_matches_classification():
    for n in range(2, 31):
        g = strong_power_graph(make_cyclic(n))
        assert is_line_graph(g) == cyclic_line_graph_classification(n)


def test_is_line_graph_against_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [strong_power_graph(make_cyclic(n)) for n in range(2, 68)]
    graphs += [strong_power_graph(grp) for _, grp in noncyclic_corpus()]
    for g in graphs:
        graph = nx.Graph(g.edges())
        graph.add_nodes_from(range(g.n))
        expected = True
        for comp in nx.connected_components(graph):
            try:
                nx.inverse_line_graph(graph.subgraph(comp))
            except nx.NetworkXError:
                expected = False
        assert is_line_graph(g) == expected, g.n


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
    assert cayley_classification(4, cyclic=False)
    assert not cayley_classification(6, cyclic=True)
    for _, grp in noncyclic_corpus(16):
        assert cayley_classification(grp.n, cyclic=False)
        # the witness is the strong power graph itself, as labelled graphs
        assert strong_power_graph(grp) == cayley_graph(grp, full_connection_set(grp))
    # the witness is K_n in every group, so equality with it is completeness,
    # which the verify oracle reads instead
    for grp in [make_cyclic(n) for n in range(1, 25)] + [g for _, g in noncyclic_corpus(16)]:
        spg = strong_power_graph(grp)
        assert (spg == cayley_graph(grp, full_connection_set(grp))) == is_complete(spg)


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
