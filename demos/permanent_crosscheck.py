#!/usr/bin/env python3
"""
Permanent closed forms against Ryser's algorithm
================================================

The permanent has no efficient general algorithm, but the strong power
graph of a cyclic group is a clique plus one extra vertex, and for that
shape the adjacency and Laplacian permanents collapse to alternating sums.
This script evaluates each closed form and confirms it against Ryser's
inclusion-exclusion algorithm (exact, O(2^n * n), fine through n = 14 here).
"""

from strongpow import (
    CliqueParams,
    adjacency,
    clique_plus_vertex_adjacency_permanent,
    clique_plus_vertex_graph,
    clique_plus_vertex_laplacian_permanent,
    complete_graph,
    complete_graph_laplacian_permanent,
    laplacian,
    make_cyclic,
    permanent_ryser,
    strong_power_graph,
)

print("cyclic strong power graphs: per(A) and per(L), formula vs Ryser")
print(f"{'n':>3} {'per(A) formula':>16} {'ryser':>16} {'per(L) formula':>16} {'ryser':>16}")
for n in range(2, 15):
    graph = strong_power_graph(make_cyclic(n))
    shape = CliqueParams.for_group(n, cyclic=True)
    pa_formula = clique_plus_vertex_adjacency_permanent(shape)
    pa_ryser = permanent_ryser(adjacency(graph))
    pl_formula = clique_plus_vertex_laplacian_permanent(shape)
    pl_ryser = permanent_ryser(laplacian(graph))
    assert pa_formula == pa_ryser and pl_formula == pl_ryser
    print(f"{n:>3} {pa_formula:>16} {pa_ryser:>16} {pl_formula:>16} {pl_ryser:>16}")

# the cyclic case is one slice of the general clique-plus-vertex family:
# a clique on m + k vertices with one extra vertex joined to k of them;
# Z_n sits at m = phi(n), k = n - phi(n) - 1
print()
print("general clique-plus-vertex family, adjacency permanents (m rows, k cols):")
header = "     " + "".join(f"{k:>10}" for k in range(0, 6))
print(header)
for m in range(0, 6):
    cells = []
    for k in range(0, 6):
        if m + k == 0:
            cells.append(f"{'-':>10}")
            continue
        p = CliqueParams(m, k)
        value = clique_plus_vertex_adjacency_permanent(p)
        g = clique_plus_vertex_graph(m, k)
        assert value == permanent_ryser(adjacency(g))
        assert clique_plus_vertex_laplacian_permanent(p) == permanent_ryser(laplacian(g))
        cells.append(f"{value:>10}")
    print(f"m={m:>2} " + "".join(cells))

# noncyclic groups give complete graphs, where the Laplacian permanent has
# its own alternating closed form
print()
print("complete graphs: per(L(K_n)), formula vs Ryser")
for n in range(1, 13):
    value = complete_graph_laplacian_permanent(n)
    check = permanent_ryser(laplacian(complete_graph(n)))
    assert value == check
    print(f"   n={n:2d}: {value}")
