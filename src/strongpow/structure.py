"""Line-graph recognition for strong power graphs by root-graph
reconstruction (Roussopoulos 1973; Lehot 1974), which returns the root and
the edge map that certify each "yes".
"""

from __future__ import annotations

from typing import Optional

from .graphs import Graph, _bits, graph_from_edges

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
    with no size guard."""
    return line_graph_root(g) is not None
