#!/usr/bin/env python3
"""
Line graphs and their root graphs
=================================

The strong power graph of a cyclic group Z_n is a line graph exactly for
orders 1, 4, 9, and primes. This script runs the recognizer over small
orders against that rule, then prints the root graph H that it rebuilds
for a few line-graph orders together with its edge map: the edge of H that
each group element stands for. Two elements are adjacent exactly when
their edges share an endpoint, which the script checks. Last, the claw
K_{1,3}, the smallest graph that is not a line graph, gets no root.
"""

from strongpow import (
    cyclic_line_graph_classification,
    graph_from_edges,
    is_line_graph,
    line_graph_root,
    make_cyclic,
    strong_power_graph,
)

print("cyclic strong power graphs: recognizer vs the {1, 4, 9, prime} rule")
line_orders = []
for n in range(1, 31):
    graph = strong_power_graph(make_cyclic(n))
    recognized = is_line_graph(graph)
    assert recognized == cyclic_line_graph_classification(n)
    if recognized:
        line_orders.append(n)
print(f"   line-graph orders up to 30: {line_orders}")
print()

print("roots rebuilt by the recognizer, with each element's edge:")
for n in (1, 4, 5, 7, 9):
    graph = strong_power_graph(make_cyclic(n))
    root, edge_of = line_graph_root(graph)
    for v in range(n):
        for w in range(v + 1, n):
            assert graph.has_edge(v, w) == bool(set(edge_of[v]) & set(edge_of[w]))
    degrees = sorted((root.degree(v) for v in range(root.n)), reverse=True)
    print(f"   n={n}: root on {root.n} vertices, degrees {degrees}")
    print(f"        root edges {root.edges()}")
    print(f"        element -> root edge: {list(edge_of)}")
print()

claw = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
assert line_graph_root(claw) is None and not is_line_graph(claw)
print("the claw K_{1,3}: line_graph_root returns None, so it is not a line graph")
