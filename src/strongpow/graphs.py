"""Simple undirected graphs on vertices 0..n-1, adjacency stored as one
Python-int bitmask per vertex. All operations are pure; Graph is immutable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .groups import FiniteGroup, _closure_classes

CHROMATIC_ORACLE_LIMIT = 14
ISOMORPHISM_LIMIT = 12
# Rows per chunk of a streamed export.
_BLOCK_ROWS = 16


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for v, mask in enumerate(self.adj):
            if mask >> self.n:
                raise ValueError(f"vertex {v} has a neighbor out of range")
            if (mask >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        bits = _bit_matrix(self)
        one_way = np.argwhere(bits > bits.T)
        if one_way.size:
            v, w = (int(i) for i in one_way[0])
            raise ValueError(f"asymmetric edge ({v}, {w})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list sorted lexicographically, u < v."""
        return [e for us, vs in _edge_blocks(self) for e in zip(us, vs)]


def _bit_matrix(graph: Graph, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The 0/1 uint8 matrix whose rows are the masks adj[lo:hi] unpacked to
    n columns; all n rows by default."""
    n = graph.n
    rows = graph.adj[lo:hi]
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in rows)
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), width),
        axis=1, count=n, bitorder="little",
    )


def _edge_blocks(graph: Graph):
    """The edges (u, v), u < v, in lexicographic order: one pair of lists
    (the u's, the v's) per block of _BLOCK_ROWS rows, so that exports hold
    one block at a time."""
    for lo in range(0, graph.n, _BLOCK_ROWS):
        us, vs = np.nonzero(np.triu(_bit_matrix(graph, lo, lo + _BLOCK_ROWS), k=lo + 1))
        yield (us + lo).tolist(), vs.tolist()


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def graph_from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def strong_power_graph(g: FiniteGroup) -> Graph:
    """Distinct a, b are adjacent iff a^{m1} = b^{m2} for some
    1 <= m1, m2 < n, that is iff their power-closure masks intersect.
    Elements with equal masks form a class, and each vertex's row is the
    union of the classes adjacent to its own. Closures that hold the
    identity all meet, so their classes join in one step; adjacency is
    decided pair by pair only for a class whose closure lacks it."""
    classes = _closure_classes(g)
    e = 1 << g.identity
    block = sum(members for mask, members in classes.items() if mask & e)
    rows = {mask: block if mask & e else 0 for mask in classes}
    for mask_i, members_i in classes.items():
        if mask_i & e:
            continue
        for mask_j, members_j in classes.items():
            if mask_i & mask_j:
                rows[mask_i] |= members_j
                rows[mask_j] |= members_i
    adj = [0] * g.n
    for mask, members in classes.items():
        for x in _bits(members):
            adj[x] = rows[mask] & ~(1 << x)
    return Graph(g.n, tuple(adj))


def degree_sequence(graph: Graph) -> list[int]:
    """Vertex degrees in ascending order."""
    return sorted(m.bit_count() for m in graph.adj)


def is_regular(graph: Graph) -> bool:
    return len({m.bit_count() for m in graph.adj}) <= 1


def is_complete(graph: Graph) -> bool:
    full = (1 << graph.n) - 1
    return all(m == full ^ (1 << v) for v, m in enumerate(graph.adj))


def vertex_connectivity(graph: Graph) -> int:
    """Smallest k such that deleting some k vertices disconnects the graph or
    leaves a single vertex; 0 for disconnected or trivial graphs, n - 1 for
    K_n. The minimum of the local connectivities over the pairs of
    Esfahanian & Hakimi (1984): a least-degree vertex v against each vertex
    not adjacent to it, and each non-adjacent pair of v's neighbours."""
    adj = graph.adj
    if graph.n <= 1:
        return 0
    v = min(range(graph.n), key=lambda u: adj[u].bit_count())
    best = graph.n - 1
    others = ((1 << graph.n) - 1) ^ (1 << v)
    for t in _bits(others & ~adj[v]):
        best = _local_connectivity(adj, v, t, best)
    for a in _bits(adj[v]):
        later = adj[v] & ~adj[a] & ~((2 << a) - 1)
        for b in _bits(later):
            best = _local_connectivity(adj, a, b, best)
    return best


def _local_connectivity(adj, s: int, t: int, cap: int) -> int:
    """min(cap, kappa(s, t)) for non-adjacent s and t: their common
    neighbours, which every s-t separator contains, plus the vertex-disjoint
    s-t paths that avoid them (Menger). The paths are unit augmenting paths
    found by BFS on the vertex-split graph, where vertex u is an arc
    u_in -> u_out of capacity 1 (Even 1975)."""
    common = adj[s] & adj[t]
    found = common.bit_count()
    keep = ~(common | (1 << s))
    used = 0                      # vertices whose u_in -> u_out arc is full
    flow_out = [0] * len(adj)     # flow_out[x] has w when arc x_out -> w_in is full
    flow_in = [0] * len(adj)      # flow_in[w] has x when arc x_out -> w_in is full
    while found < cap:
        # BFS over (vertex, side) nodes, side 0 = in and 1 = out, from s_out
        parent = {(s, 1): None}
        frontier = [(s, 1)]
        while frontier and (t, 0) not in parent:
            nxt = []
            for x, side in frontier:
                if side:    # edge arcs out of x_out, and back across a full x
                    heads = [(w, 0) for w in _bits(adj[x] & keep & ~flow_out[x])]
                    if (used >> x) & 1:
                        heads.append((x, 0))
                else:       # across an empty x, or back along x's full in-arc
                    heads = [(y, 1) for y in _bits(flow_in[x] if (used >> x) & 1 else 1 << x)]
                for head in heads:
                    if head not in parent:
                        parent[head] = (x, side)
                        nxt.append(head)
            frontier = nxt
        if (t, 0) not in parent:
            break
        head = (t, 0)
        while parent[head] is not None:
            (x, side), w = parent[head], head[0]
            if x == w:      # along or back across an in -> out arc
                used ^= 1 << w
            elif side:      # along x_out -> w_in
                flow_out[x] |= 1 << w
                flow_in[w] |= 1 << x
            else:           # back along w_out -> x_in
                flow_out[w] &= ~(1 << x)
                flow_in[x] &= ~(1 << w)
            head = (x, side)
        found += 1
    return min(found, cap)


def _max_clique_size(adj, n: int) -> int:
    best = 0

    def extend(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        extend(cand & adj[v], size + 1)          # take v
        extend(cand ^ (1 << v), size)            # skip v
    extend((1 << n) - 1, 0)
    return best


def _colorable(order, adj, k: int) -> bool:
    n = len(order)
    colors = [-1] * n

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        forbidden = 0
        for j in range(i):
            if (adj[v] >> order[j]) & 1:
                forbidden |= 1 << colors[j]
        limit = min(k, used + 1)
        for c in range(limit):
            if not (forbidden >> c) & 1:
                colors[i] = c
                if place(i + 1, max(used, c + 1)):
                    return True
        colors[i] = -1
        return False

    return place(0, 0)


def chromatic_number_exact(graph: Graph) -> int:
    """Exact chromatic number.

    Complete graphs and clique-plus-one-vertex graphs (the only shapes the
    strong power graph construction produces) get a closed-form answer at any
    size; anything else falls to branch-and-bound, bounded at 14 vertices.
    """
    n = graph.n
    if n == 0:
        return 0
    full = (1 << n) - 1
    missed = [(full ^ (1 << v) ^ m).bit_count() for v, m in enumerate(graph.adj)]
    if not any(missed):
        return n
    if 2 * max(missed) == sum(missed):
        # G - v is complete, as v's non-neighbours make up every non-edge;
        # v misses a vertex of that (n-1)-clique, so its color can be reused.
        return n - 1
    if n > CHROMATIC_ORACLE_LIMIT:
        raise SizeGuardError(
            f"chromatic_number_exact is bounded at {CHROMATIC_ORACLE_LIMIT} vertices "
            f"for general graphs, got {n}"
        )
    lower = _max_clique_size(graph.adj, n)
    order = sorted(range(n), key=lambda v: -graph.adj[v].bit_count())
    for k in range(max(lower, 1), n + 1):
        if _colorable(order, graph.adj, k):
            return k
    return n


def _refine_labels(graph: Graph) -> list[int]:
    labels = [m.bit_count() for m in graph.adj]
    for _ in range(3):
        sig = [
            (labels[v], tuple(sorted(labels[w] for w in _bits(graph.adj[v]))))
            for v in range(graph.n)
        ]
        canon = {s: i for i, s in enumerate(sorted(set(sig)))}
        labels = [canon[s] for s in sig]
    return labels


def graph_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test by label-refined backtracking; the search is
    bounded at 12 vertices per side, but structural resolutions that need no
    search (unequal sizes, identical adjacency, completeness) work at any
    size."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    if a.adj == b.adj:
        return True
    ca, cb = is_complete(a), is_complete(b)
    if ca or cb:
        return ca and cb
    if a.n > ISOMORPHISM_LIMIT:
        raise SizeGuardError(
            f"graph_isomorphic search is bounded at {ISOMORPHISM_LIMIT} "
            f"vertices, got {a.n}"
        )
    la, lb = _refine_labels(a), _refine_labels(b)
    if sorted(la) != sorted(lb):
        return False
    n = a.n
    # Map a-vertices in order of rarest label first.
    rarity = {lab: la.count(lab) for lab in set(la)}
    order = sorted(range(n), key=lambda v: (rarity[la[v]], v))
    image = [-1] * n
    used = 0

    def assign(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        u = order[i]
        for v in range(n):
            if (used >> v) & 1 or lb[v] != la[u]:
                continue
            ok = True
            for j in range(i):
                w = order[j]
                if ((a.adj[u] >> w) & 1) != ((b.adj[v] >> image[w]) & 1):
                    ok = False
                    break
            if ok:
                image[u] = v
                used |= 1 << v
                if assign(i + 1):
                    return True
                used ^= 1 << v
                image[u] = -1
        return False

    return assign(0)


def graph_to_json(graph: Graph):
    """Yield, in chunks of rows, the JSON text {"n": n, "edges": [[u, v], ...]}
    as json.dumps writes it, edges sorted with u < v; no trailing newline."""
    yield f'{{"n": {graph.n}, "edges": ['
    sep = ""
    for us, vs in _edge_blocks(graph):
        if us:
            yield sep + ", ".join(f"[{u}, {v}]" for u, v in zip(us, vs))
            sep = ", "
    yield "]}"


def graph_to_dot(graph: Graph):
    """Yield, in chunks of rows, Graphviz text: every vertex, then every
    edge u -- v with u < v."""
    yield "graph G {\n" + "".join(f"  {v};\n" for v in range(graph.n))
    for us, vs in _edge_blocks(graph):
        yield "".join(f"  {u} -- {v};\n" for u, v in zip(us, vs))
    yield "}\n"
