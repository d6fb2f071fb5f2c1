#!/usr/bin/env python3
"""
Line graphs, forbidden patterns, and root graphs
================================================

A graph is a line graph exactly when none of nine small forbidden graphs
occurs as an induced subgraph. This script shows the nine patterns, checks
each one really is a minimal non-line graph using the exhaustive root-graph
search, and then classifies strong power graphs of cyclic groups: they are
line graphs exactly for orders 1, 4, 9, and primes. The recognizer rebuilds
a root graph with its edge map; for two orders that root is printed beside
the explicit one, and every explicit root is round-tripped.
"""

from strongpow import (
    beineke_patterns,
    cyclic_line_graph_classification,
    cyclic_line_graph_root,
    graph_isomorphic,
    induced_subgraph,
    is_line_graph,
    line_graph_construct,
    line_graph_root,
    make_cyclic,
    root_graph_search,
    strong_power_graph,
)

print("the nine minimal non-line graphs:")
for i, p in enumerate(beineke_patterns()):
    degs = sorted(p.degree(v) for v in range(p.n))
    print(f"   pattern {i}: {p.n} vertices, {p.edge_count()} edges, degrees {degs}")
    # no root graph exists for the pattern itself...
    assert root_graph_search(p) is None
    # ...but deleting any one vertex leaves a line graph (minimality)
    for v in range(p.n):
        rest = [u for u in range(p.n) if u != v]
        assert root_graph_search(induced_subgraph(p, rest)) is not None
print("   all nine verified minimal by exhaustive root search")
print()

print("cyclic strong power graphs: recognizer vs the {4, 9, prime} rule")
line_orders = []
for n in range(2, 31):
    graph = strong_power_graph(make_cyclic(n))
    recognized = is_line_graph(graph)
    assert recognized == cyclic_line_graph_classification(n)
    if recognized:
        line_orders.append(n)
print(f"   line-graph orders up to 30: {line_orders}")
print()

print("roots rebuilt by the recognizer beside the explicit ones:")
for n in (7, 9):
    graph = strong_power_graph(make_cyclic(n))
    root, edge_of = line_graph_root(graph)
    explicit = cyclic_line_graph_root(n)
    assert graph_isomorphic(root, explicit)
    degrees = sorted((root.degree(v) for v in range(root.n)), reverse=True)
    print(f"   n={n:2d}: rebuilt root has {root.n} vertices, degrees {degrees}")
    print(f"         explicit root edges {explicit.edges()}")
    print(f"         rebuilt root edges  {root.edges()}")
    print(f"         group element -> root edge: {list(edge_of)}")
print()

print("explicit root graphs and their round trips:")
for n in (2, 3, 4, 5, 7, 9, 11):
    root = cyclic_line_graph_root(n)
    graph = strong_power_graph(make_cyclic(n))
    rebuilt = line_graph_construct(root)
    assert graph_isomorphic(rebuilt, graph)
    print(
        f"   n={n:2d}: root on {root.n} vertices with {root.edge_count()} edges,"
        f" L(root) has {rebuilt.edge_count()} edges == power graph"
    )

# the order-4 power graph also falls out of the generic search
g4 = strong_power_graph(make_cyclic(4))
found = root_graph_search(g4)
print()
print(f"generic search on the order-4 graph finds a root with edges {found.edges()}")
assert graph_isomorphic(line_graph_construct(found), g4)
