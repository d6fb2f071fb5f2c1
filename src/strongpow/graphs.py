"""Simple undirected graphs on vertices 0..n-1, adjacency stored as one
Python-int bitmask per vertex. All operations are pure; Graph is immutable."""

from __future__ import annotations

from itertools import compress

from .formulas import _Frozen
from .groups import FiniteGroup, _closure_classes, _mask

# Rows per chunk of a streamed export.
_BLOCK_ROWS = 16
# Binary digits '0' and '1' to bytes 0 and 1.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


class Graph(_Frozen):
    # _partition keeps the twin classes of _twins, which the symmetry check
    # computes and twin_quotient reads
    __slots__ = ("n", "adj", "_partition")

    def __init__(self, n: int, adj: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        self.__post_init__()

    def __post_init__(self):
        """Validation, a method of its own so that it can be timed apart
        (perfbench's graphs.graph_validate layer)."""
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for v, mask in enumerate(self.adj):
            if mask >> self.n:
                raise ValueError(f"vertex {v} has a neighbor out of range")
            if (mask >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        object.__setattr__(self, "_partition", _twins(self.adj))
        if not _is_symmetric(self.adj, self._partition):
            v, w = next((v, w) for v, mask in enumerate(self.adj)
                        for w in _bits(mask) if not self.adj[w] >> v & 1)
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


def _twins(adj: tuple[int, ...]) -> tuple[list[list[int]], list[int], list[int]]:
    """The vertices in classes of true twins (equal closed masks, so
    adjacent) and, of the vertices left alone, of false twins (equal open
    masks, so not adjacent): the classes, ascending and in the order of
    their least vertex; each vertex's class; and each class's mask. A
    vertex u with a true twin v has no false twin w: w would see v, so u,
    and so itself. In a graph the classes are therefore those of i ~ j
    when N(i) and N(j) agree outside {i, j}."""
    closed: dict[int, list[int]] = {}
    for v, mask in enumerate(adj):
        closed.setdefault(mask | 1 << v, []).append(v)
    opened: dict[int, list[int]] = {}
    classes = []
    for members in closed.values():
        if len(members) > 1:
            classes.append(members)
        else:
            opened.setdefault(adj[members[0]], []).append(members[0])
    classes += opened.values()
    classes.sort()
    owner = [0] * len(adj)
    for i, members in enumerate(classes):
        for v in members:
            owner[v] = i
    return classes, owner, [_mask(members) for members in classes]


def _is_symmetric(adj: tuple[int, ...], partition) -> bool:
    """Whether w in adj[v] exactly when v in adj[w], for loopless masks
    with the given twin partition (see _twins). Each twin class sees every
    vertex outside it alike, and the members of a class see each other
    alike both ways. The relation is then symmetric exactly when each class
    A that sees some of a class B sees all of B, and B all of A: one test
    per pair of adjacent classes, so a graph with few classes, such as K_n,
    costs O(n) operations on n-bit masks."""
    classes, owner, masks = partition
    for members, mask in zip(classes, masks):
        seen = adj[members[0]] & ~mask
        while seen:
            j = owner[(seen & -seen).bit_length() - 1]
            if seen & masks[j] != masks[j] or adj[classes[j][0]] & mask != mask:
                return False
            seen ^= masks[j]
    return True


def twin_quotient(graph: Graph, laplacian: bool):
    """(sizes, c, diag), all tuples, for the Laplacian L = D - A of graph,
    or for its adjacency matrix A, over the twin classes of _twins that the
    graph kept from its symmetry check: i and j are twins when N(i) and N(j)
    agree outside {i, j}, which is when they are twins of the matrix
    (M_ii = M_jj, M_ij = M_ji, and rows and columns agree outside {i, j}).
    sizes holds the class sizes m_a, c the value c_ab that each class a
    holds towards class b, with c_aa its value off the diagonal (for a
    singleton, its diagonal entry), and diag each class's diagonal entry
    M_ii. This is an equitable partition (Godsil & Royle, Algebraic Graph
    Theory, 9.3): eigenvectors that sum to zero on one class have the
    eigenvalue d_a = M_ii - c_aa (m_a - 1 of them per class), and
    class-constant vectors see the quotient c_ab m_b, whose diagonal is
    M_ii + c_aa (m_a - 1). One mask test per pair of adjacent classes, so
    K_n and Z_n's graph cost O(n) operations on n-bit masks."""
    adj = graph.adj
    classes, owner, masks = graph._partition
    edge = -1 if laplacian else 1
    c, diag = [], []
    for a, (members, mask) in enumerate(zip(classes, masks)):
        i = members[0]
        row = [0] * len(classes)
        seen = adj[i] & ~mask
        while seen:
            b = owner[(seen & -seen).bit_length() - 1]
            row[b] = edge
            seen &= ~masks[b]
        m_ii = adj[i].bit_count() if laplacian else 0
        # true twins are adjacent, false twins not; a singleton's c_aa is M_ii
        row[a] = m_ii if len(members) == 1 else edge if adj[i] & mask else 0
        c.append(tuple(row))
        diag.append(m_ii)
    return tuple(map(len, classes)), tuple(c), tuple(diag)


def _bit_bytes(mask: int, n: int) -> bytes:
    """The bits of mask, which is below 2^n, as n bytes of 0 or 1, least
    significant first."""
    return f"{mask:0{n}b}"[::-1][:n].encode().translate(_DIGIT_BITS)


def _edge_blocks(graph: Graph):
    """The edges (u, v), u < v, in lexicographic order: one pair of lists
    (the u's, the v's) per block of _BLOCK_ROWS rows, so that exports hold
    one block at a time."""
    n = graph.n
    for lo in range(0, n, _BLOCK_ROWS):
        us: list[int] = []
        vs: list[int] = []
        for u in range(lo, min(lo + _BLOCK_ROWS, n)):
            later = list(compress(range(u + 1, n), _bit_bytes(graph.adj[u] >> u + 1, n - u - 1)))
            us += [u] * len(later)
            vs += later
        yield us, vs


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


def _clique_shape(graph: Graph) -> int | None:
    """The most non-neighbours any vertex has, for the only shapes the strong
    power graph construction produces: 0 for K_n (and the empty graph), and
    v's count when v meets every non-edge, so that G - v is a clique. None
    for any other graph. Twins have equally many non-neighbours, so each
    twin class is counted once, times its size: O(classes) mask operations."""
    full, adj = (1 << graph.n) - 1, graph.adj
    missed = [((full ^ (1 << c[0]) ^ adj[c[0]]).bit_count(), len(c)) for c in graph._partition[0]]
    most = max((count for count, _ in missed), default=0)
    # each non-edge is counted at both ends, so v's count is half the sum
    # exactly when every non-edge ends at v
    return most if 2 * most == sum(count * size for count, size in missed) else None


def vertex_connectivity(graph: Graph) -> int | None:
    """Smallest k such that deleting some k vertices disconnects the graph or
    leaves a single vertex, read off the shape at any size: n - 1 for K_n,
    and for a clique plus one vertex v the degree of v, whose neighbours
    cut it off (0 for the empty graph and for an isolated v). None for any
    other graph."""
    most = _clique_shape(graph)
    return None if most is None else max(graph.n - 1 - most, 0)


def chromatic_number_exact(graph: Graph) -> int | None:
    """Exact chromatic number, read off the shape at any size: 0 for the
    empty graph, n for K_n, and n - 1 for a clique plus one vertex v, which
    misses a vertex of the (n-1)-clique and can reuse its color. None for
    any other graph."""
    most = _clique_shape(graph)
    return None if most is None else graph.n - (most > 0)


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


def graph_to_matrix_market(graph: Graph, laplacian: bool):
    """Yield, in chunks of rows, Matrix Market coordinate text (integer
    field, 1-based indices, 'symmetric' qualifier) of the graph's Laplacian
    L = D - A or of its adjacency matrix A: the nonzero entries of the lower
    triangle, row by row, read off the masks."""
    n, adj = graph.n, graph.adj
    count = graph.edge_count() + (sum(map(bool, adj)) if laplacian else 0)
    yield f"%%MatrixMarket matrix coordinate integer symmetric\n{n} {n} {count}\n"
    names = [str(j) for j in range(1, n + 1)]
    edge = " -1\n" if laplacian else " 1\n"
    for lo in range(0, n, _BLOCK_ROWS):
        lines = []
        for i in range(lo, min(lo + _BLOCK_ROWS, n)):
            head = names[i] + " "
            # the columns j < i of row i's neighbours, then its diagonal
            below = list(compress(names, _bit_bytes(adj[i], i)))
            if below:
                lines.append(head + (edge + head).join(below) + edge)
            if laplacian and adj[i]:
                lines.append(f"{head}{names[i]} {adj[i].bit_count()}\n")
        yield "".join(lines)
