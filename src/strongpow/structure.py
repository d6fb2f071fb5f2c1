"""Structural classification of strong power graphs: line-graph recognition
by root-graph reconstruction (Roussopoulos 1973; Lehot 1974), which returns
the root and the edge map that certify each "yes"; the nine forbidden
induced subgraphs (Beineke) and an exhaustive root-graph search, kept as
cross-checks and for the gallery demo; Cayley-graph construction and
classification; and the connectivity and chromatic-number closed forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .errors import SizeGuardError
from .graphs import (
    Graph,
    _bits,
    complete_graph,
    disjoint_union,
    graph_from_edges,
    graph_isomorphic,
    star_graph,
)
from .groups import FiniteGroup, euler_phi, is_cyclic

ROOT_SEARCH_HOST_LIMIT = 7
ROOT_SEARCH_VERTEX_LIMIT = 8
PATTERN_VERTEX_LIMIT = 6

# The nine minimal graphs that are not line graphs, as vertex-count/edge-list
# pairs in a canonical order (vertex count, edge count, degree sequence,
# lexicographically least edge list over all relabelings). First is K_{1,3}.
# The test suite re-derives both defining properties from scratch with
# root_graph_search rather than trusting this transcription.
_BEINEKE_EDGES = (
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

@dataclass(frozen=True)
class ForbiddenPatternSet:
    """The nine minimal non-line graphs. A graph is a line graph exactly when
    none of these occurs as an induced subgraph."""

    patterns: tuple[Graph, ...]

    def __post_init__(self):
        if len(self.patterns) != 9:
            raise ValueError(f"expected nine patterns, got {len(self.patterns)}")
        for p in self.patterns:
            if not 4 <= p.n <= PATTERN_VERTEX_LIMIT:
                raise ValueError(f"pattern on {p.n} vertices is out of range 4..6")

    def __iter__(self):
        return iter(self.patterns)

@functools.lru_cache(maxsize=1)
def beineke_patterns() -> ForbiddenPatternSet:
    """The canonical nine minimal non-line graphs, claw first."""
    return ForbiddenPatternSet(
        tuple(graph_from_edges(n, edges) for n, edges in _BEINEKE_EDGES)
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

def _is_clique(adj, mask: int) -> bool:
    return all(mask & ~adj[v] == 1 << v for v in _bits(mask))

def _start_cells(adj, u: int) -> list[int]:
    """The cells that can hold the edge from u to its least neighbour v in a
    clique partition of the line graph L(H). With u = xy and v = xz in H,
    their common neighbours are the other edges at x, which are pairwise
    adjacent, plus at most one more, yz, adjacent to none of them. So the
    cell is every common neighbour, or all but one that has no neighbour
    among the others: at most two candidates, and both are tried."""
    if not adj[u]:
        return [1 << u]  # an isolated vertex: its root is K_2
    v = (adj[u] & -adj[u]).bit_length() - 1
    common = adj[u] & adj[v]
    pair = (1 << u) | (1 << v)
    cells = [pair | common] if _is_clique(adj, common) else []
    for w in _bits(common):
        rest = common ^ (1 << w)
        if not adj[w] & common and _is_clique(adj, rest):
            cells.append(pair | rest)
    return cells

def _grow_cells(adj, start: int) -> Optional[list[int]]:
    """Grow a clique partition of the edges of start's component, with each
    vertex in at most two cells (Krausz), from one cell. A vertex held by
    one cell has all its other edges in its second cell, so every further
    cell is forced (Roussopoulos 1973). None when a cell is not a clique or
    would be a vertex's third."""
    cells: list[int] = []
    held: dict[int, int] = {}  # vertex -> union of the cells holding it
    twice = 0
    queue: list[int] = []
    cell = start
    while True:
        if cell:
            if cell & twice or not _is_clique(adj, cell):
                return None
            cells.append(cell)
            for x in _bits(cell):
                if x in held:
                    held[x] |= cell
                    twice |= 1 << x
                else:
                    held[x] = cell
                    queue.append(x)
        if not queue:
            return cells
        u = queue.pop()
        cell = 0 if twice >> u & 1 else adj[u] & ~held[u]
        if cell:
            cell |= 1 << u

def _certified_edges(adj, cells: list[int], base: int) -> Optional[tuple[dict[int, tuple[int, int]], int]]:
    """Map each vertex of the cells' component to an edge of the root: the
    vertices base + i for its cells i, plus a pendant vertex when one cell
    holds it. Returns the map and the number of root vertices it uses, or
    None unless the map reproduces adj."""
    own: dict[int, list[int]] = {}
    for i, cell in enumerate(cells):
        for x in _bits(cell):
            own.setdefault(x, []).append(base + i)
    incidence = list(cells)  # vertex base + i of H -> the edges at it
    edges: dict[int, tuple[int, int]] = {}
    for x, ends in own.items():
        if len(ends) == 1:
            ends.append(base + len(incidence))
            incidence.append(1 << x)
        a, b = ends
        if (incidence[a - base] | incidence[b - base]) ^ (1 << x) != adj[x]:
            return None
        edges[x] = (a, b)
    if len(set(edges.values())) != len(edges):
        return None  # two vertices share both cells: a multiple edge
    return edges, len(incidence)

def line_graph_root(g: Graph) -> Optional[tuple[Graph, tuple[tuple[int, int], ...]]]:
    """A root graph H with L(H) = g, and the edge of H that each vertex of
    g stands for, or None when g is not a line graph.

    Each component is rebuilt on its own: an isolated vertex is one K_2
    edge; otherwise the cells of a clique partition (see _grow_cells) become
    vertices of H, and a vertex of g held by one cell gets a pendant vertex
    of its own. A root is returned only with its certificate: the adjacency
    that the edge map implies (the union of the two endpoints' incidence
    masks, minus the vertex itself) equals g.adj row for row, and no two
    vertices map to one edge, so L(H) is g itself, not just isomorphic to
    it."""
    adj = g.adj
    ends: list[tuple[int, int]] = [(0, 0)] * g.n
    size = 0
    left = (1 << g.n) - 1
    while left:
        u = (left & -left).bit_length() - 1
        for start in _start_cells(adj, u):
            cells = _grow_cells(adj, start)
            found = cells and _certified_edges(adj, cells, size)
            if found:
                break
        else:
            return None
        edges, used = found
        for x, e in edges.items():
            ends[x] = e
            left ^= 1 << x
        size += used
    return graph_from_edges(size, ends), tuple(ends)

def is_line_graph(g: Graph) -> bool:
    """True iff g is the line graph of some simple graph, decided by
    rebuilding a root with line_graph_root: O(n) operations on n-bit masks,
    with no size guard. The Beineke search (contains_induced over
    beineke_patterns) is its cross-check in the tests."""
    return line_graph_root(g) is not None

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

def cyclic_line_graph_classification(n: int) -> bool:
    """True iff the strong power graph of Z_n is a line graph, which happens
    exactly for n = 1 (the one-vertex graph is L(K_2)), n = 4, n = 9, and
    prime n."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return n in (1, 4, 9) or euler_phi(n) == n - 1

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

@dataclass(frozen=True)
class ConnectionSet:
    """A connection set for a Cayley graph: excludes the identity and is
    closed under inversion."""

    group: FiniteGroup
    elements: frozenset[int]

    def __post_init__(self):
        g = self.group
        for x in self.elements:
            if not 0 <= x < g.n:
                raise ValueError(f"element {x} out of range for order {g.n}")
        if g.identity in self.elements:
            raise ValueError("connection set must not contain the identity")
        inverses = frozenset(g.inverse(x) for x in self.elements)
        if inverses != self.elements:
            raise ValueError("connection set must be closed under inversion")

def full_connection_set(g: FiniteGroup) -> ConnectionSet:
    """All non-identity elements; always a valid connection set."""
    return ConnectionSet(g, frozenset(range(g.n)) - {g.identity})

def cayley_graph(g: FiniteGroup, s: ConnectionSet) -> Graph:
    """The Cayley graph C(G, S): distinct x, y adjacent iff x * y^{-1} lies
    in S. Inverse closure of S makes the relation symmetric; the result is
    |S|-regular."""
    if s.group is not g and s.group != g:
        raise ValueError("connection set belongs to a different group")
    members = s.elements
    inv = [g.inverse(y) for y in range(g.n)]
    adj = [0] * g.n
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if g.op(x, inv[y]) in members:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return Graph(g.n, tuple(adj))

def cayley_classification(g: FiniteGroup) -> bool:
    """True iff the strong power graph of g is a Cayley graph of some group,
    which happens exactly when g is noncyclic (the witness being
    C(G, G without identity) = K_n). Cyclic groups of order >= 3 yield a
    non-regular graph, which no Cayley graph is."""
    return not is_cyclic(g)

def kappa_formula(n: int, cyclic: bool) -> int:
    """Vertex connectivity of the strong power graph: n - phi(n) - 1 for
    cyclic groups (0 when n is prime or 1), n - 1 otherwise."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return 0
    if cyclic:
        return n - euler_phi(n) - 1
    return n - 1

def chi_formula(n: int, cyclic: bool) -> int:
    """Chromatic number of the strong power graph: n - 1 for cyclic groups
    of order >= 2, n otherwise."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return 1
    if cyclic:
        return n - 1
    return n
