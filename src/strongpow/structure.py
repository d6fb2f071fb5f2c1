"""Line-graph membership for strong power graphs, read off the graph's shape."""

from __future__ import annotations

from .graphs import Graph, _clique_shape


def is_line_graph(g: Graph) -> bool | None:
    """Whether g is a line graph, read off the shape (see _clique_shape) at
    any size. K_n is L(K_{1,n}). A clique K_N plus a vertex v of degree
    k < N is one exactly when k <= 2: its root is a star K_{1,N} plus an
    edge that is disjoint, pendant at a leaf or joins two leaves; for
    k >= 3, v with three neighbours and a non-neighbour induce K_5 - e
    (Beineke 1970). None for any other graph."""
    most = _clique_shape(g)
    return None if most is None else most == 0 or g.n - 1 - most <= 2
