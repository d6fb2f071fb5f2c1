"""Reference oracles and graph builders that only the tests use.

Each oracle is a slow, obviously-correct computation kept as a cross-check
for a faster routine in `strongpow`, and each refuses inputs past a size
guard instead of running for hours. The builders make the small test graphs
that no command constructs.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Optional

from strongpow.errors import SizeGuardError
from strongpow.graphs import (
    Graph,
    _bits,
    complete_graph,
    graph_from_edges,
    graph_isomorphic,
)
from strongpow.groups import FiniteGroup
from strongpow.spectral import IntMatrix
from strongpow.structure import cyclic_line_graph_classification

CONNECTIVITY_ORACLE_LIMIT = 14
BRUTEFORCE_CONSTRUCTION_LIMIT = 32
EXPANSION_LIMIT = 10
ROOT_SEARCH_HOST_LIMIT = 7
ROOT_SEARCH_VERTEX_LIMIT = 8
PATTERN_VERTEX_LIMIT = 6


# --- graph builders ----------------------------------------------------------


def star_graph(n: int) -> Graph:
    """K_{1,n}: center 0, leaves 1..n."""
    leaves = ((1 << n) - 1) << 1
    return Graph(n + 1, (leaves,) + tuple(1 for _ in range(n)))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    adj = list(a.adj) + [m << a.n for m in b.adj]
    return Graph(a.n + b.n, tuple(adj))


def clique_plus_vertex_graph(m: int, k: int) -> Graph:
    """Clique on m+k vertices plus one extra vertex adjacent to the last k of
    them (so non-adjacent to the first m). Total m+k+1 vertices."""
    if m < 0 or k < 0:
        raise ValueError("clique parameters must be nonnegative")
    c = m + k
    full = (1 << c) - 1
    adj = [full ^ (1 << v) for v in range(c)]
    extra = ((1 << k) - 1) << m if k else 0
    for v in _bits(extra):
        adj[v] |= 1 << c
    adj.append(extra)
    return Graph(c + 1, tuple(adj))


def induced_subgraph(graph: Graph, subset) -> Graph:
    """Subgraph on the given vertices, relabeled 0..k-1 in sorted order."""
    vs = sorted(set(subset))
    for v in vs:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
    adj = []
    for u in vs:
        m = 0
        for j, v in enumerate(vs):
            if (graph.adj[u] >> v) & 1:
                m |= 1 << j
        adj.append(m)
    return Graph(len(vs), tuple(adj))


def graph_from_json(text: str) -> Graph:
    """The inverse of `graph_to_json`, validating its shape."""
    data = json.loads(text)
    if not isinstance(data, dict) or set(data) != {"n", "edges"}:
        raise ValueError("expected an object with keys 'n' and 'edges'")
    n = data["n"]
    if not isinstance(n, int) or n < 0:
        raise ValueError("'n' must be a nonnegative integer")
    edges = []
    for item in data["edges"]:
        u, v = item
        if not (isinstance(u, int) and isinstance(v, int) and u < v):
            raise ValueError(f"edge {item!r} must be [u, v] with u < v")
        edges.append((u, v))
    return graph_from_edges(n, edges)


# --- export texts -------------------------------------------------------------
#
# Each builds the whole text at once by probing every entry or vertex pair,
# as the exporters did before they streamed; the streamed chunks must join to
# exactly these strings.


def matrix_market_text(m: IntMatrix) -> str:
    """Matrix Market coordinate text: the lower triangle under 'symmetric'
    when m equals its transpose, else every nonzero under 'general'."""
    rows = m.rows
    n = len(rows)
    symmetric = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
    entries = [
        (i, j, rows[i][j])
        for i in range(n)
        for j in range(i + 1 if symmetric else n)
        if rows[i][j] != 0
    ]
    kind = "symmetric" if symmetric else "general"
    lines = [f"%%MatrixMarket matrix coordinate integer {kind}", f"{n} {n} {len(entries)}"]
    lines += [f"{i + 1} {j + 1} {v}" for i, j, v in entries]
    return "\n".join(lines) + "\n"


def _probed_edges(graph: Graph) -> list[tuple[int, int]]:
    n = graph.n
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (graph.adj[u] >> v) & 1]


def graph_json_text(graph: Graph) -> str:
    return json.dumps({"n": graph.n, "edges": [[u, v] for u, v in _probed_edges(graph)]})


def graph_dot_text(graph: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(graph.n)]
    lines += [f"  {u} -- {v};" for u, v in _probed_edges(graph)]
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- construction, determinant, permanent and connectivity oracles -----------


def strong_power_graph_bruteforce(g: FiniteGroup) -> Graph:
    """The strong power graph by direct enumeration of the defining
    condition, one (m1, m2) pair at a time. Independent of the bitset route;
    O(n^4), so bounded at order 32."""
    n = g.n
    if n > BRUTEFORCE_CONSTRUCTION_LIMIT:
        raise SizeGuardError(
            f"strong_power_graph_bruteforce is bounded at order "
            f"{BRUTEFORCE_CONSTRUCTION_LIMIT}, got {n}"
        )
    powers = []
    for x in range(n):
        row = []
        y = x
        for _ in range(n - 1):
            row.append(y)
            y = g.op(y, x)
        powers.append(row)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if any(pa == pb for pa in powers[a] for pb in powers[b]):
                edges.append((a, b))
    return graph_from_edges(n, edges)


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination. Every
    division in the update is exact over the integers, so no rationals
    appear at any point."""
    n = m.n
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def permanent_expansion(m: IntMatrix) -> int:
    """Exact permanent by expansion along successive rows (the permanent
    analogue of cofactor expansion, without sign alternation). Independent of
    the Ryser route; bounded at order 10."""
    n = m.n
    if n > EXPANSION_LIMIT:
        raise SizeGuardError(
            f"permanent_expansion is bounded at order {EXPANSION_LIMIT}, got {n}"
        )
    rows = m.rows

    def expand(i: int, free: int) -> int:
        if i == n:
            return 1
        total = 0
        for j in _bits(free):
            a = rows[i][j]
            if a:
                total += a * expand(i + 1, free ^ (1 << j))
        return total

    return expand(0, (1 << n) - 1)


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


# --- line graphs: Beineke's patterns and an exhaustive root search -----------

# The nine minimal graphs that are not line graphs (Beineke), in a canonical
# order (vertex count, edge count, degree sequence, lexicographically least
# edge list over all relabelings). First is the claw K_{1,3}. A graph is a
# line graph exactly when none of them occurs as an induced subgraph. The
# tests re-derive both defining properties with root_graph_search rather
# than trusting this transcription.
BEINEKE_PATTERNS = tuple(
    graph_from_edges(n, edges)
    for n, edges in (
        (4, ((0, 1), (0, 2), (0, 3))),
        (5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4))),
        (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4))),
        (6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5))),
        (6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5))),
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (4, 5))),
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (3, 5))),
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5))),
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5))),
    )
)


def contains_induced(host: Graph, pattern: Graph) -> bool:
    """True iff some vertex subset of host induces a graph isomorphic to
    pattern. Both adjacency and non-adjacency must match, so supergraphs of
    the pattern do not count.

    Backtracking with forward checking: each unplaced pattern vertex keeps a
    candidate bitmask over host vertices, every placement narrows all of them
    in bulk, and the most-constrained vertex is placed next. Dead branches
    (an empty candidate set) are cut before recursion."""
    if pattern.n > PATTERN_VERTEX_LIMIT:
        raise SizeGuardError(
            f"contains_induced patterns are bounded at {PATTERN_VERTEX_LIMIT} "
            f"vertices, got {pattern.n}"
        )
    k, n = pattern.n, host.n
    if k > n:
        return False
    if k == 0:
        return True
    full = (1 << n) - 1
    pdeg = [pattern.adj[u].bit_count() for u in range(k)]
    hdeg = [host.adj[v].bit_count() for v in range(n)]
    base = []
    for u in range(k):
        m = 0
        for v in range(n):
            if hdeg[v] >= pdeg[u]:
                m |= 1 << v
        if not m:
            return False
        base.append(m)

    def place(masks: list[int], remaining: int) -> bool:
        if not remaining:
            return True
        u = min(_bits(remaining), key=lambda x: masks[x].bit_count())
        rest = remaining ^ (1 << u)
        for v in _bits(masks[u]):
            avoid = full ^ (1 << v)
            hadj = host.adj[v]
            narrowed = list(masks)
            for w in _bits(rest):
                m = narrowed[w] & (hadj if (pattern.adj[u] >> w) & 1 else hadj ^ full) & avoid
                if not m:
                    break
                narrowed[w] = m
            else:
                if place(narrowed, rest):
                    return True
        return False

    return place(base, (1 << k) - 1)


def line_graph_construct(g: Graph) -> Graph:
    """The line graph L(g): one vertex per edge of g in lexicographic edge
    order, adjacent iff the edges share an endpoint."""
    edges = g.edges()
    m = len(edges)
    pairs = []
    for i in range(m):
        u1, v1 = edges[i]
        for j in range(i + 1, m):
            u2, v2 = edges[j]
            if u1 == u2 or u1 == v2 or v1 == u2 or v1 == v2:
                pairs.append((i, j))
    return graph_from_edges(m, pairs)


def root_graph_search(g: Graph, max_root_vertices: int = ROOT_SEARCH_VERTEX_LIMIT) -> Optional[Graph]:
    """Exhaustive search for a graph H with L(H) isomorphic to g, over edge
    sets of size g.n on at most max_root_vertices vertices. Returns the first
    root in a fixed deterministic order, or None when no root exists within
    the bound (so None on a ≤ 7-vertex input proves g is not a line graph
    with a small root).

    Candidates are enumerated as lexicographic edge sequences that introduce
    new vertices in order, which visits every isomorphism class exactly via
    its breadth-first labeling; candidates are pre-filtered by the line-graph
    edge count sum(C(deg, 2)) before the isomorphism check.
    """
    if g.n > ROOT_SEARCH_HOST_LIMIT:
        raise SizeGuardError(
            f"root_graph_search hosts are bounded at {ROOT_SEARCH_HOST_LIMIT} "
            f"vertices, got {g.n}"
        )
    if max_root_vertices > ROOT_SEARCH_VERTEX_LIMIT:
        raise SizeGuardError(
            f"root_graph_search roots are bounded at {ROOT_SEARCH_VERTEX_LIMIT} "
            f"vertices, got {max_root_vertices}"
        )
    if max_root_vertices < 0:
        raise ValueError("max_root_vertices must be nonnegative")
    k = g.n
    if k == 0:
        return Graph(0, ())
    target = g.edge_count()
    r = max_root_vertices
    all_edges = [(u, v) for u in range(r) for v in range(u + 1, r)]
    total = len(all_edges)
    # Adding an edge raises sum(C(deg, 2)) by deg(u)+deg(v), at most 2(r-1).
    max_gain = 2 * (r - 1) if r > 1 else 0
    deg = [0] * r
    chosen: list[tuple[int, int]] = []

    def search(start: int, pair_sum: int, max_seen: int) -> Optional[Graph]:
        if len(chosen) == k:
            if pair_sum != target:
                return None
            h = graph_from_edges(max_seen + 1, chosen)
            if graph_isomorphic(line_graph_construct(h), g):
                return h
            return None
        need = k - len(chosen)
        if total - start < need or pair_sum + need * max_gain < target:
            return None
        for idx in range(start, total):
            u, v = all_edges[idx]
            if v > max_seen + 1 and not (u == max_seen + 1 and v == max_seen + 2):
                continue
            gain = deg[u] + deg[v]
            if pair_sum + gain > target:
                # Taking this edge overshoots; later edges touch other
                # endpoints and may still fit, so skip just this one.
                continue
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            found = search(idx + 1, pair_sum + gain, max(max_seen, v))
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
            if found is not None:
                return found
        return None

    return search(0, 0, -1)


def cyclic_line_graph_root(n: int) -> Graph:
    """An explicit root graph H with L(H) isomorphic to the strong power
    graph of Z_n, for the orders where one exists: K_2 for n = 1,
    K_{1,n-1} + K_2 for prime n, a star with a pendant on one leaf for
    n = 4, and a 9-vertex star with one leaf-leaf edge for n = 9 (no root on
    fewer than 9 vertices exists: eight pairwise-intersecting edges force a
    degree-8 star center)."""
    if n == 1:
        return complete_graph(2)
    if n == 4:
        return graph_from_edges(5, ((0, 1), (0, 2), (0, 3), (1, 4)))
    if n == 9:
        star9 = tuple((0, v) for v in range(1, 9))
        return graph_from_edges(9, star9 + ((1, 2),))
    if not cyclic_line_graph_classification(n):
        raise ValueError(f"strong power graph of Z_{n} is not a line graph")
    return disjoint_union(star_graph(n - 1), complete_graph(2))
