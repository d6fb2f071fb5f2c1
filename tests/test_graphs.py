import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpow.errors import SizeGuardError
from strongpow.formulas import closed_form_spectrum, euler_phi, kappa_formula
from strongpow.graphs import (
    Graph,
    chromatic_number_exact,
    complete_graph,
    degree_sequence,
    graph_from_edges,
    graph_to_dot,
    graph_to_json,
    is_complete,
    is_regular,
    strong_power_graph,
    vertex_connectivity,
)
from strongpow.groups import (
    _closure_classes,
    make_cyclic,
    make_from_table,
    make_klein,
    noncyclic_corpus,
    parse_group_spec,
)
from strongpow.spectral import laplacian, laplacian_spectrum

from reference import (
    BRUTEFORCE_CONSTRUCTION_LIMIT,
    clique_plus_vertex_graph,
    disjoint_union,
    graph_from_json,
    graph_isomorphic,
    induced_subgraph,
    star_graph,
    strong_power_graph_bruteforce,
    vertex_connectivity_bruteforce,
)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))
    with pytest.raises(ValueError):
        Graph(1, (0b1,))
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    # symmetry is checked at every order: 3 -> 597 stays, 597 -> 3 goes
    adj = list(complete_graph(600).adj)
    adj[597] &= ~(1 << 3)
    with pytest.raises(ValueError, match=r"^asymmetric edge \(3, 597\)$"):
        Graph(600, tuple(adj))
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(1, 1)])


def test_graph_accessors():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 2
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_builders():
    k4 = complete_graph(4)
    assert k4.edge_count() == 6 and is_complete(k4)
    s3 = star_graph(3)
    assert s3.n == 4 and s3.edges() == [(0, 1), (0, 2), (0, 3)]
    u = disjoint_union(complete_graph(2), complete_graph(3))
    assert u.n == 5 and u.edge_count() == 4
    assert not u.has_edge(1, 2)
    cv = clique_plus_vertex_graph(2, 3)
    # clique on 5 vertices plus one extra vertex adjacent to the last 3
    assert cv.n == 6
    assert cv.degree(5) == 3
    assert induced_subgraph(cv, range(5)).edge_count() == 10


def cyclic_as_table(n):
    """Z_n given by its addition table, so that it takes the table path."""
    return make_from_table([[(a + b) % n for b in range(n)] for a in range(n)])


def closure_mask(g, x):
    """The power-closure mask of the class that holds x."""
    masks = [mask for mask, members in _closure_classes(g).items() if members >> x & 1]
    assert len(masks) == 1
    return masks[0]


def test_power_closure_cyclic_6():
    # the closure {x^m : 1 <= m <= n - 1} as a bitmask over the elements,
    # from the gcd classes of Z_6 and from the power walk over its table
    for g in (make_cyclic(6), cyclic_as_table(6)):
        assert closure_mask(g, 0) == 0b000001
        # exponents stop at n - 1, so a generator's closure misses the identity
        assert closure_mask(g, 1) == 0b111110
        assert closure_mask(g, 2) == 0b010101
        assert closure_mask(g, 3) == 0b001001


def test_power_closure_klein_and_trivial():
    k = make_klein()
    assert closure_mask(k, 1) == 0b11
    for g1 in (make_cyclic(1), cyclic_as_table(1)):
        assert closure_mask(g1, 0) == 0


def test_strong_power_graph_cyclic_4():
    g = strong_power_graph(make_cyclic(4))
    assert set(g.edges()) == {(0, 2), (1, 2), (1, 3), (2, 3)}


def test_strong_power_graph_cyclic_6_degrees():
    g = strong_power_graph(make_cyclic(6))
    assert degree_sequence(g) == [3, 4, 4, 5, 5, 5]


def test_strong_power_graph_prime_is_clique_plus_isolated():
    g = strong_power_graph(make_cyclic(5))
    assert degree_sequence(g) == [0, 3, 3, 3, 3]
    assert is_complete(induced_subgraph(g, [1, 2, 3, 4]))


def test_strong_power_graph_noncyclic_is_complete():
    assert is_complete(strong_power_graph(make_klein()))
    for _, grp in noncyclic_corpus(12):
        assert is_complete(strong_power_graph(grp))


def test_strong_power_graph_matches_bruteforce():
    limit = BRUTEFORCE_CONSTRUCTION_LIMIT
    groups = [(f"zn:{n}", make_cyclic(n)) for n in range(1, limit + 1)]
    # cyclic groups given as tables, whose generators' closures miss the identity
    groups += [(f"table Z_{n}", cyclic_as_table(n)) for n in range(1, limit + 1)]
    groups += [
        (spec, parse_group_spec(spec)) for spec in ("product:zn:2+zn:3", "product:zn:3+zn:5")
    ]
    for spec, g in groups + noncyclic_corpus(24):
        assert strong_power_graph(g).adj == strong_power_graph_bruteforce(g).adj, spec


def test_bruteforce_guard():
    with pytest.raises(SizeGuardError):
        strong_power_graph_bruteforce(make_cyclic(33))


def test_edge_count_formula_cyclic():
    for n in range(2, 25):
        g = strong_power_graph(make_cyclic(n))
        phi = euler_phi(n)
        assert g.edge_count() == (n * n - n - 2 * phi) // 2
    # sweep takes 2m from the closed-form spectrum's trace
    for n in range(1, 129):
        g = strong_power_graph(make_cyclic(n))
        assert closed_form_spectrum(n, True).trace() // 2 == g.edge_count()


def test_degree_multiset_cyclic():
    for n in range(3, 20):
        g = strong_power_graph(make_cyclic(n))
        phi = euler_phi(n)
        degs = degree_sequence(g)
        expected = sorted(
            [n - phi - 1] + [n - 2] * phi + [n - 1] * (n - phi - 1)
        )
        assert degs == expected


def test_vertex_connectivity():
    assert vertex_connectivity_bruteforce(complete_graph(4)) == 3
    assert vertex_connectivity_bruteforce(strong_power_graph(make_cyclic(4))) == 1
    assert vertex_connectivity_bruteforce(strong_power_graph(make_cyclic(6))) == 3
    assert vertex_connectivity_bruteforce(star_graph(4)) == 1
    assert (
        vertex_connectivity_bruteforce(
            disjoint_union(complete_graph(2), complete_graph(2))
        )
        == 0
    )
    assert vertex_connectivity_bruteforce(complete_graph(1)) == 0
    with pytest.raises(SizeGuardError):
        vertex_connectivity_bruteforce(complete_graph(15))


@st.composite
def planted_shapes(draw):
    # a clique of drawn size plus one vertex with a drawn neighbourhood in
    # it, relabelled at random: K_n when the vertex sees the whole clique,
    # and an isolated vertex when it sees none of it
    size = draw(st.integers(min_value=0, max_value=13))
    seen = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    label = draw(st.permutations(range(size + 1)))
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges += [(u, size) for u in range(size) if seen[u]]
    g = graph_from_edges(size + 1, [(label[u], label[v]) for u, v in edges])
    return g, sum(seen)


@settings(max_examples=200, deadline=None)
@given(planted_shapes())
def test_shape_oracles_match_bruteforce(planted):
    g, degree = planted
    n = g.n
    assert vertex_connectivity(g) == vertex_connectivity_bruteforce(g)
    assert vertex_connectivity(g) == degree
    assert chromatic_number_exact(g) == chromatic_shape_by_subgraphs(g)
    assert chromatic_number_exact(g) == (n if degree == n - 1 else n - 1)


def two_cliques_through_low_vertex():
    """K_5 on 0..4 and K_5 on 5..9 joined by s = 10, adjacent to all ten,
    and v = 11, adjacent to 0, 1, 5 and 6: {v, s} is its only 2-separator."""
    sides = [range(0, 5), range(5, 10)]
    edges = [(a, b) for side in sides for a in side for b in side if a < b]
    edges += [(a, 10) for a in range(10)] + [(a, 11) for a in (0, 1, 5, 6)]
    return graph_from_edges(12, edges)


def test_vertex_connectivity_boundary_cases():
    shaped = [
        Graph(0, ()),
        complete_graph(1),
        complete_graph(2),
        complete_graph(9),
        disjoint_union(complete_graph(1), complete_graph(5)),
        clique_plus_vertex_graph(1, 4),
    ]
    for g in shaped:
        assert vertex_connectivity(g) == vertex_connectivity_bruteforce(g)
    assert [vertex_connectivity(g) for g in shaped] == [0, 0, 1, 8, 0, 4]
    # a graph of neither shape has no answer, whatever its kappa (0, 1, 0,
    # 1, 2, 2 below), as it has no chi
    for g in (
        Graph(5, (0,) * 5),
        star_graph(6),
        disjoint_union(complete_graph(3), complete_graph(4)),
        path_graph(7),
        cycle_graph(8),
        two_cliques_through_low_vertex(),
    ):
        assert vertex_connectivity(g) is None
        assert chromatic_number_exact(g) is None


def test_vertex_connectivity_matches_networkx():
    # networkx's max-flow node_connectivity, on the strong power graphs;
    # it takes about 2 s up to Z_64 and grows as n^3 (12.7 s at Z_256)
    nx = pytest.importorskip("networkx")
    graphs = [strong_power_graph(make_cyclic(n)) for n in range(1, 65)]
    graphs += [strong_power_graph(grp) for _, grp in noncyclic_corpus()]
    for g in graphs:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        assert vertex_connectivity(g) == nx.node_connectivity(ref), g.n


def test_vertex_connectivity_matches_kappa_formula():
    # the same walk checks the exact spectrum of the twin quotient, which
    # the le oracle reads, against the paper's closed form
    for n in range(1, 257):
        g = strong_power_graph(make_cyclic(n))
        assert vertex_connectivity(g) == kappa_formula(n, True), n
        assert laplacian_spectrum(laplacian(g)) == closed_form_spectrum(n, True), n
    for spec, grp in noncyclic_corpus(24):
        g = strong_power_graph(grp)
        assert vertex_connectivity(g) == kappa_formula(grp.n, False), spec
        assert laplacian_spectrum(laplacian(g)) == closed_form_spectrum(grp.n, False), spec


def test_chromatic_number():
    # the two shapes of a strong power graph are decided at any size
    assert chromatic_number_exact(complete_graph(4)) == 4
    assert chromatic_number_exact(complete_graph(20)) == 20
    assert chromatic_number_exact(strong_power_graph(make_cyclic(4))) == 3
    assert chromatic_number_exact(strong_power_graph(make_cyclic(17))) == 16
    assert chromatic_number_exact(Graph(0, ())) == 0
    # any other graph has no answer, small or large: the three non-edges of
    # the edgeless Graph(3) meet no common vertex
    assert chromatic_number_exact(cycle_graph(5)) is None
    assert chromatic_number_exact(cycle_graph(15)) is None
    assert chromatic_number_exact(Graph(3, (0, 0, 0))) is None


def test_graph_isomorphic_basics():
    assert graph_isomorphic(complete_graph(3), cycle_graph(3))
    assert not graph_isomorphic(star_graph(3), path_graph(4))
    assert not graph_isomorphic(cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)))
    perm = [2, 0, 3, 1]
    g = strong_power_graph(make_cyclic(4))
    h = graph_from_edges(4, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()])
    assert graph_isomorphic(g, h)


def test_graph_isomorphic_fast_paths_any_size():
    assert graph_isomorphic(complete_graph(20), complete_graph(20))
    assert not graph_isomorphic(complete_graph(20), complete_graph(21))
    big = strong_power_graph(make_cyclic(16))
    assert graph_isomorphic(big, big)
    # non-complete, distinct adjacency, above the backtracking bound
    shuffled = graph_from_edges(
        big.n, [tuple(sorted((big.n - 1 - u, big.n - 1 - v))) for u, v in big.edges()]
    )
    if shuffled.adj != big.adj:
        with pytest.raises(SizeGuardError):
            graph_isomorphic(big, shuffled)


def test_induced_subgraph_from_power_graph():
    g = strong_power_graph(make_cyclic(12))
    sub = induced_subgraph(g, [0, 2, 3, 4, 1])
    # vertices renumber in the order given
    assert sub.n == 5
    assert sub.edge_count() == 9


def test_is_regular():
    assert is_regular(complete_graph(5))
    assert is_regular(cycle_graph(6))
    assert not is_regular(star_graph(3))
    assert is_regular(Graph(0, ()))


def test_json_round_trip():
    g = strong_power_graph(make_cyclic(9))
    text = "".join(graph_to_json(g))
    assert graph_from_json(text).adj == g.adj
    parsed = json.loads(text)
    assert parsed["n"] == 9
    assert all(u < v for u, v in parsed["edges"])


def test_graph_from_json_validation():
    with pytest.raises(ValueError):
        graph_from_json("[1, 2]")
    with pytest.raises(ValueError):
        graph_from_json('{"n": 2}')
    with pytest.raises(ValueError):
        graph_from_json('{"n": -1, "edges": []}')
    with pytest.raises(ValueError):
        graph_from_json('{"n": 3, "edges": [[1, 0]]}')
    with pytest.raises(ValueError):
        graph_from_json('{"n": 3, "edges": [[0, 7]]}')


def test_graph_to_dot():
    g = graph_from_edges(3, [(0, 1)])
    text = "".join(graph_to_dot(g))
    assert text.startswith("graph G {")
    assert "  0 -- 1;" in text
    assert "  2;" in text
    assert text.endswith("}\n")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_from_edges(n, chosen)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_json_round_trip_property(g):
    assert graph_from_json("".join(graph_to_json(g))).adj == g.adj


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_relabel_isomorphic_property(g):
    rev = [g.n - 1 - i for i in range(g.n)]
    h = graph_from_edges(g.n, [tuple(sorted((rev[u], rev[v]))) for u, v in g.edges()])
    assert graph_isomorphic(g, h)


@st.composite
def loopless_masks(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    masks = [draw(st.integers(0, (1 << n) - 1)) & ~(1 << v) for v in range(n)]
    if draw(st.booleans()):
        masks = [
            m | sum(1 << w for w in range(n) if (masks[w] >> v) & 1)
            for v, m in enumerate(masks)
        ]
        if n and draw(st.booleans()):
            v = draw(st.integers(0, n - 1))
            masks[v] &= masks[v] - 1  # drop one direction of v's lowest edge
    return masks


@st.composite
def twin_class_masks(draw):
    """Masks built from planted classes of true twins (a clique) or false
    twins (no edges inside), each pair of classes joined fully or not at
    all, under a random labeling; at times one class sees another one way
    only, or one edge loses one direction."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    classes, start = [], 0
    for size in sizes:
        classes.append(order[start:start + size])
        start += size
    k = len(classes)
    joined = {(a, b): draw(st.booleans()) for a in range(k) for b in range(a, k)}
    for a in range(k):
        for b in range(a):
            joined[a, b] = joined[b, a]
    if k > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(k)))[:2]
        joined[a, b] = not joined[a, b]
    masks = [0] * n
    for a, cls in enumerate(classes):
        for b, other in enumerate(classes):
            if joined[a, b]:
                for v in cls:
                    masks[v] |= sum(1 << w for w in other if w != v)
    if n > 1 and draw(st.booleans()):
        v, w = draw(st.permutations(range(n)))[:2]
        masks[v] ^= 1 << w
    return masks


@settings(max_examples=150, deadline=None)
@given(st.one_of(loopless_masks(), twin_class_masks()))
def test_symmetry_check_matches_bit_probes(masks):
    # reference: probe each edge (v, w) in row-major order for its reverse
    n = len(masks)
    first = next(
        ((v, w) for v in range(n) for w in range(n)
         if (masks[v] >> w) & 1 and not (masks[w] >> v) & 1),
        None,
    )
    if first is None:
        assert Graph(n, tuple(masks)).adj == tuple(masks)
    else:
        with pytest.raises(ValueError, match=rf"^asymmetric edge \({first[0]}, {first[1]}\)$"):
            Graph(n, tuple(masks))


def chromatic_shape_by_subgraphs(graph):
    """n for K_n and n - 1 when deleting some vertex leaves a clique, read
    off n induced subgraphs; None for any other graph."""
    n = graph.n
    if is_complete(graph):
        return n
    for v in range(n):
        if is_complete(induced_subgraph(graph, [u for u in range(n) if u != v])):
            return n - 1
    return None


@st.composite
def near_complete_graphs(draw):
    # K_n less a few edges, often sharing an end, so that the shapes with
    # and without a vertex that meets every non-edge both occur
    n = draw(st.integers(min_value=1, max_value=22))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    hub = draw(st.integers(0, n - 1))
    at_hub = [p for p in pairs if hub in p]
    removed = set()
    if pairs:
        removed |= set(draw(st.lists(st.sampled_from(at_hub), max_size=4)))
        removed |= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    return graph_from_edges(n, [p for p in pairs if p not in removed])


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_graphs(), near_complete_graphs()))
def test_chromatic_shape_matches_induced_subgraphs(g):
    assert chromatic_number_exact(g) == chromatic_shape_by_subgraphs(g)
