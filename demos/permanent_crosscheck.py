#!/usr/bin/env python3
"""
Permanent closed forms against Ryser's algorithm
================================================

The permanent has no efficient general algorithm, but the strong power
graph of a cyclic group is a clique plus one extra vertex, and for that
shape the adjacency and Laplacian permanents collapse to alternating sums
in the shape's two integers: the identity misses the phi(n) generators
and meets the other n - phi(n) - 1 elements. This script prints each
order's shape, evaluates each closed form and confirms it against Ryser's
inclusion-exclusion algorithm, summed over the twin classes of each matrix
(three for Z_n, one for K_n), which `twin_quotient` reads off the graph.
"""

from strongpow import (
    clique_plus_vertex_adjacency_permanent,
    clique_plus_vertex_laplacian_permanent,
    clique_plus_vertex_shape,
    complete_graph,
    complete_graph_laplacian_permanent,
    laplacian,
    make_cyclic,
    permanent_ryser,
    strong_power_graph,
    twin_quotient,
)

print("cyclic strong power graphs: per(A) and per(L), formula vs Ryser")
print(f"{'n':>3} {'shape':>8} {'per(A) formula':>16} {'ryser':>16} {'per(L) formula':>16} {'ryser':>16}")
for n in range(2, 15):
    graph = strong_power_graph(make_cyclic(n))
    shape = clique_plus_vertex_shape(n, cyclic=True)
    pa_formula = clique_plus_vertex_adjacency_permanent(*shape)
    pa_ryser = permanent_ryser(twin_quotient(graph, laplacian=False))
    pl_formula = clique_plus_vertex_laplacian_permanent(*shape)
    pl_ryser = permanent_ryser(laplacian(graph))
    assert pa_formula == pa_ryser and pl_formula == pl_ryser
    print(f"{n:>3} {str(shape):>8} {pa_formula:>16} {pa_ryser:>16} {pl_formula:>16} {pl_ryser:>16}")

# noncyclic groups give complete graphs, where the Laplacian permanent has
# its own alternating closed form
print()
print("complete graphs: per(L(K_n)), formula vs Ryser")
for n in range(1, 13):
    value = complete_graph_laplacian_permanent(n)
    check = permanent_ryser(laplacian(complete_graph(n)))
    assert value == check
    print(f"   n={n:2d}: {value}")
