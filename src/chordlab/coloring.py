"""3-coloring of graphs that decompose as a Hamilton cycle plus disjoint
triangles or order-3 paths, plus color-class selection under endpoint
constraints.

Existence of the coloring is guaranteed for these shapes by the
cycle-plus-triangles theorem of Fleischner and Stiebitz: closing each
order-3 path u-v-w into a triangle, after subdividing the cycle edge uw
where there is one, gives a cycle plus disjoint triangles that contains
every edge of g.  So search exhaustion is reported as an internal error,
never as "not 3-colorable".
"""

from __future__ import annotations

from .errors import InvariantViolation
from .graphs import Graph, components_after_deletion, vertex_bits
from .search import Cycle


def three_color_cycle_plus(g: Graph, c: Cycle) -> dict:
    """Proper 3-coloring of g (colors 1..3) by DSATUR backtracking on g.

    ``c`` must be a Hamilton cycle of g, and every component of the edges
    off it must have three vertices: a triangle or an order-3 path.

    The extender's rings (`extender._color_ring`) carry vertex-disjoint
    triangles, each sharing at most one edge uw with the ring; off the
    ring such a triangle is an order-3 path u-v-w.  Closing that path
    into a triangle, by subdividing the ring edge uw with a new vertex z
    and keeping uw as a chord, would not change the coloring: z has the
    highest id and only the neighbors u and w, which are adjacent, so
    DSATUR picks z only after both are colored; z then has one free color
    and no uncolored neighbor, and every other vertex is picked and
    colored as it is on g.
    """
    c.validate(g)
    if c.length != g.n:
        raise ValueError("c must be a Hamilton cycle of g")
    cyc = c.edge_set()
    off = Graph(g.n, [e for e in g.edges if e not in cyc])
    for comp in components_after_deletion(off, [v for v in range(g.n) if not off.masks[v]]):
        if comp.bit_count() != 3:
            raise ValueError(
                f"off-cycle component {vertex_bits(comp)} is neither a triangle "
                "nor a path of order 3"
            )
    coloring = _backtrack_three_color(g)
    if coloring is None:
        raise InvariantViolation(
            "coloring", "3-coloring search exhausted on a cycle-plus-triangles graph"
        )
    return dict(enumerate(coloring))


def _backtrack_three_color(g: Graph):
    """DSATUR-order backtracking; saturation ties break by lowest id."""
    n = g.n
    color = [0] * n
    neighbor_colors = [set() for _ in range(n)]

    def pick():
        best = -1
        for v in range(n):
            if color[v] == 0:
                if best == -1 or len(neighbor_colors[v]) > len(neighbor_colors[best]):
                    best = v
        return best

    def rec(done):
        if done == n:
            return True
        v = pick()
        for col in (1, 2, 3):
            if col in neighbor_colors[v]:
                continue
            color[v] = col
            touched = []
            for w in g.neighbors(v):
                if col not in neighbor_colors[w]:
                    neighbor_colors[w].add(col)
                    touched.append(w)
            if rec(done + 1):
                return True
            color[v] = 0
            for w in touched:
                neighbor_colors[w].discard(col)
        return False

    if rec(0):
        return list(color)
    return None


def pick_color_class(coloring: dict, forbidden=(), triangles=()):
    """Select the lowest-numbered color class disjoint from ``forbidden``
    and relabel each attachment triangle so its member of that class is
    designated last: returns (class vertex set, relabeled triples).

    ``forbidden`` may hold at most two vertices and they must not exhaust
    all three classes; a proper 3-coloring makes each triangle rainbow, so
    the designation always exists.
    """
    forbidden = frozenset(forbidden)
    if len(forbidden) > 2:
        raise ValueError("forbidden set may hold at most two vertices")
    classes = {col: set() for col in (1, 2, 3)}
    for v, col in coloring.items():
        if col not in classes:
            raise ValueError(f"color {col} outside 1..3")
        classes[col].add(v)
    # at most two forbidden vertices meet at most two of the three classes
    chosen = next(col for col in (1, 2, 3) if not classes[col] & forbidden)
    a_set = frozenset(classes[chosen])
    relabeled = []
    for tri in triangles:
        inside = [v for v in tri if v in a_set]
        if len(inside) != 1:
            raise InvariantViolation(
                "coloring", f"triangle {tri} is not rainbow under the chosen coloring"
            )
        w = inside[0]
        u, v = sorted(x for x in tri if x != w)
        relabeled.append((u, v, w))
    return a_set, relabeled
