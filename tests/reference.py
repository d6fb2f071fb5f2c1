"""Reference oracles, matrices and graph builders that only the tests use.

Each oracle is a slow, obviously-correct computation kept as a cross-check
for a faster routine in `strongpow`, or, like the isomorphism search, as
the reference the tests compare small built graphs with. Each refuses
inputs past a size guard instead of running for hours. The builders make the small test graphs
that no command constructs, and the Cayley graph C(G, S) that witnesses
the Cayley classification. `IntMatrix` holds a whole n x n integer matrix,
and `twin_classes` and `matrix_quotient` read a twin quotient off its
entries: the references for `strongpow.graphs.twin_quotient`, which reads
it off a graph's masks, and for the kernels that take a quotient.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Optional

from operator import index

from strongpow.errors import SizeGuardError
from strongpow.formulas import _Frozen, cyclic_line_graph_classification
from strongpow.graphs import (
    Graph,
    _bits,
    complete_graph,
    degree_sequence,
    graph_from_edges,
    is_complete,
)
from strongpow.groups import FiniteGroup, _mask

CONNECTIVITY_ORACLE_LIMIT = 14
ISOMORPHISM_LIMIT = 12
BRUTEFORCE_CONSTRUCTION_LIMIT = 32
EXPANSION_LIMIT = 10
ROOT_SEARCH_HOST_LIMIT = 7
ROOT_SEARCH_VERTEX_LIMIT = 8
PATTERN_VERTEX_LIMIT = 6


# --- whole integer matrices and their twin quotients -------------------------


class IntMatrix:
    """Square integer matrix, held as `rows`: a tuple of n rows, each a
    tuple of n Python ints, so every entry is exact whatever its size.
    Equality and hash go by value."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(map(index, row)) for row in rows)
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise ValueError(
                    f"expected a square matrix, got row {i} of length {len(row)} "
                    f"in {len(rows)} rows")
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def trace(self) -> int:
        return sum(row[i] for i, row in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        return all(map(tuple.__eq__, self.rows, zip(*self.rows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))!r})"


def laplacian_matrix(graph: Graph) -> IntMatrix:
    """L = D - A, entry by entry from bit probes of the masks."""
    return IntMatrix([[graph.degree(u) if u == v else -((graph.adj[u] >> v) & 1)
                       for v in range(graph.n)] for u in range(graph.n)])


def adjacency_matrix(graph: Graph) -> IntMatrix:
    """A, entry by entry from bit probes of the masks."""
    return IntMatrix([[(graph.adj[u] >> v) & 1 for v in range(graph.n)] for u in range(graph.n)])


def twin_classes(m: IntMatrix) -> list[list[int]]:
    """The indices split into classes of twins, each class ascending and
    the classes in the order of their least index. Indices i and j are twins
    when M_ii = M_jj, M_ij = M_ji, and their rows and their columns agree
    outside {i, j}. Twinship is an equivalence, and a class holds one value
    c_aa off its diagonal and one value c_ab towards each other class b
    (an equitable partition). Any partition into classes of twins, all
    singletons included, gives the exact char poly and permanent."""
    rows = m.rows
    # the columns matter only where they are not the rows
    lines = (rows,) if m.is_symmetric() else (rows, tuple(zip(*rows)))
    # Twins share their diagonal entry, and each one's row (and column) is
    # the other's with two entries swapped, so their sorted rows and sorted
    # columns agree: group by those first.
    coarse: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        key = (row[i], *(tuple(sorted(line[i])) for line in lines))
        coarse.setdefault(key, []).append(i)
    classes = []
    for group in coarse.values():
        # i and j are twins with M_ij = v exactly when their rows, and their
        # columns, are equal once both diagonal entries are set to v; v is
        # in row i, and so in every row of the group
        left = group
        for v in sorted(set(rows[group[0]])):
            if len(left) < 2:
                break
            fine: dict[tuple, list[int]] = {}
            for i in left:
                key = tuple(line[i][:i] + (v,) + line[i][i + 1:] for line in lines)
                fine.setdefault(key, []).append(i)
            classes += [f for f in fine.values() if len(f) > 1]
            left = [f[0] for f in fine.values() if len(f) == 1]
        classes += [[i] for i in left]
    return sorted(classes)


def matrix_quotient(m: IntMatrix, classes=None):
    """(sizes, c, diag), all tuples, for a partition of m's indices into
    classes of twins (by default twin_classes(m)): the class sizes; the
    value c_ab each class a holds towards class b, with c_aa its value off
    the diagonal (for a singleton, its diagonal entry); and each class's
    diagonal entry. The form the package's exact kernels take."""
    classes = twin_classes(m) if classes is None else classes
    rows = m.rows
    firsts = [cls[0] for cls in classes]
    c = [[rows[i][j] for j in firsts] for i in firsts]
    for a, cls in enumerate(classes):
        c[a][a] = rows[cls[0]][cls[-1]]
    return (tuple(map(len, classes)), tuple(map(tuple, c)),
            tuple(rows[i][i] for i in firsts))


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


# --- construction, determinant, permanent, connectivity and isomorphism ------


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


class ConnectionSet(_Frozen):
    """A connection set for a Cayley graph: excludes the identity and is
    closed under inversion."""

    __slots__ = ("group", "elements")

    def __init__(self, group: FiniteGroup, elements: frozenset[int]):
        for x in elements:
            if not 0 <= x < group.n:
                raise ValueError(f"element {x} out of range for order {group.n}")
        if group.identity in elements:
            raise ValueError("connection set must not contain the identity")
        inverses = frozenset(group.inverse(x) for x in elements)
        if inverses != elements:
            raise ValueError("connection set must be closed under inversion")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "elements", elements)


def full_connection_set(g: FiniteGroup) -> ConnectionSet:
    """All non-identity elements; always a valid connection set."""
    return ConnectionSet(g, frozenset(range(g.n)) - {g.identity})


def cayley_graph(g: FiniteGroup, s: ConnectionSet) -> Graph:
    """The Cayley graph C(G, S): distinct x, y adjacent iff x * y^{-1} lies
    in S. Inverse closure of S makes the relation symmetric; the result is
    |S|-regular."""
    if s.group is not g:
        raise ValueError("connection set belongs to a different group")
    # y = s^{-1} x for some s in S, and S holds the inverses of its members
    return Graph(g.n, tuple(_mask(g.op(t, x) for t in s.elements) for x in range(g.n)))


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


def poly_at(coeffs, x: int) -> int:
    """The polynomial with ascending coefficients coeffs at x, by Horner's
    rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


def graph_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test: a backtracking search that maps a's vertices
    in order onto b's vertices of equal degree, bounded at 12 vertices.
    Unequal degree sequences, equal adjacency and complete graphs are
    settled without the search at any size."""
    if degree_sequence(a) != degree_sequence(b):
        return False
    if a.adj == b.adj or is_complete(a):
        return True
    n = a.n
    if n > ISOMORPHISM_LIMIT:
        raise SizeGuardError(
            f"graph_isomorphic search is bounded at {ISOMORPHISM_LIMIT} vertices, got {n}"
        )
    image: list[int] = []  # image[w] is b's vertex for a's vertex w

    def extend(u: int) -> bool:
        if u == n:
            return True
        for v in range(n):
            if v not in image and b.degree(v) == a.degree(u) and all(
                a.has_edge(u, w) == b.has_edge(v, image[w]) for w in range(u)
            ):
                image.append(v)
                if extend(u + 1):
                    return True
                image.pop()
        return False

    return extend(0)


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
