#!/usr/bin/env python3
"""
Line graphs among strong power graphs
=====================================

The strong power graph of a cyclic group Z_n is a clique K_N on the n - 1
other elements plus the identity, which sees the k = n - phi(n) - 1
elements that are not generators. K_N plus a vertex of degree k < N is a
line graph exactly when k <= 2: the root is a star K_{1,N} plus one more
edge, disjoint (k = 0), pendant at a leaf (k = 1) or joining two leaves
(k = 2). For k >= 3 the vertex, three of its neighbours and a
non-neighbour induce K_5 - e, which no line graph contains (Beineke). This
script prints each order's shape against the {1, 4, 9, prime} rule, and
shows that the claw K_{1,3}, which has neither shape, gets no answer.
"""

from strongpow import (
    cyclic_line_graph_classification,
    graph_from_edges,
    is_line_graph,
    make_cyclic,
    strong_power_graph,
    vertex_connectivity,
)

print("cyclic strong power graphs: shape K_N + one vertex of degree k")
print("   n   N   k  line graph  {1, 4, 9, prime} rule")
line_orders = []
for n in range(1, 31):
    graph = strong_power_graph(make_cyclic(n))
    # the identity's neighbours cut it off, so kappa is its degree
    k = vertex_connectivity(graph)
    recognized = is_line_graph(graph)
    rule = cyclic_line_graph_classification(n)
    assert recognized == rule == (k <= 2)
    if recognized:
        line_orders.append(n)
    print(f"{n:4} {n - 1:3} {k:3}  {str(recognized):10}  {rule}")
print(f"   line-graph orders up to 30: {line_orders}")
print()

claw = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
assert is_line_graph(claw) is None
print("the claw K_{1,3} is neither K_n nor a clique plus one vertex, so")
print("is_line_graph returns None: the shape rule has no answer for it")
