"""Reference oracles that only the tests use.

Each one is a slow, obviously-correct computation kept as a cross-check for
a faster routine in `strongpow`, and each refuses inputs past a size guard
instead of running for hours.
"""

from __future__ import annotations

from itertools import combinations

from strongpow.errors import SizeGuardError
from strongpow.graphs import Graph

CONNECTIVITY_ORACLE_LIMIT = 14


def _connected_on(adj, keep: int) -> bool:
    """Whether the vertices in the mask `keep` induce a connected graph."""
    if keep == 0:
        return True
    seen = frontier = keep & -keep
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if (frontier >> v) & 1:
                nxt |= adj[v]
        frontier = nxt & keep & ~seen
        seen |= frontier
    return seen == keep


def vertex_connectivity_bruteforce(graph: Graph) -> int:
    """Smallest k such that deleting some k vertices disconnects the graph or
    leaves a single vertex; 0 for disconnected or trivial graphs. Checks all
    vertex subsets in increasing size, so bounded at 14 vertices."""
    n = graph.n
    if n > CONNECTIVITY_ORACLE_LIMIT:
        raise SizeGuardError(
            f"vertex_connectivity_bruteforce is bounded at {CONNECTIVITY_ORACLE_LIMIT} "
            f"vertices, got {n}"
        )
    full = (1 << n) - 1
    if n <= 1 or not _connected_on(graph.adj, full):
        return 0
    for k in range(1, n):
        for cut in combinations(range(n), k):
            keep = full
            for v in cut:
                keep ^= 1 << v
            if keep.bit_count() <= 1 or not _connected_on(graph.adj, keep):
                return k
    return n - 1
