"""3-coloring of graphs that decompose as a Hamilton cycle plus disjoint
triangles or order-3 paths, via the close-the-path/subdivide transform,
plus color-class selection under endpoint constraints.

Existence of the coloring is guaranteed for these shapes, so search
exhaustion is reported as an internal error, never as "not 3-colorable".
"""

from __future__ import annotations

from .errors import InvariantViolation
from .graphs import Graph
from .search import Cycle


def _cycle_plus_components(g: Graph, c: Cycle):
    """Validate the decomposition shape and split off-cycle components
    into triangles and order-3 paths (as (end, mid, end))."""
    c.validate(g)
    if c.length != g.n:
        raise ValueError("c must be a Hamilton cycle of g")
    cyc = c.edge_set()
    rest = [e for e in g.edges if e not in cyc]
    nbr = {}
    for u, v in rest:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    seen = set()
    triangles, paths = [], []
    for start in sorted(nbr):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in nbr[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comp_edges = [e for e in rest if e[0] in comp]
        if len(comp) == 3 and len(comp_edges) == 3:
            triangles.append(tuple(sorted(comp)))
        elif len(comp) == 3 and len(comp_edges) == 2:
            mid = next(v for v in comp if len(nbr[v]) == 2)
            ends = sorted(comp - {mid})
            paths.append((ends[0], mid, ends[1]))
        else:
            raise ValueError(
                f"off-cycle component {sorted(comp)} is neither a triangle "
                "nor a path of order 3"
            )
    return cyc, triangles, paths


def subdivision_transform(g: Graph, c: Cycle):
    """Close each order-3 path component u-v-w into a triangle by adding
    uw; when uw already lies on the cycle, first subdivide that cycle edge
    with a fresh vertex.  The result is an edge-disjoint union of one
    Hamilton cycle and vertex-disjoint triangles: returns (graph, that
    Hamilton cycle)."""
    cyc, triangles, paths = _cycle_plus_components(g, c)
    edges = list(g.edges)
    order = list(c.vertices)
    n = g.n
    for u, mid, w in paths:
        key = (min(u, w), max(u, w))
        if key in cyc:
            z = n
            n += 1
            edges.remove(key)
            edges.append((u, z))
            edges.append((z, w))
            i, j = order.index(u), order.index(w)
            if (i + 1) % len(order) == j:
                order.insert(j, z)
            else:
                order.insert(i, z)
        edges.append((min(u, w), max(u, w)))
    g2 = Graph(n, edges)
    return g2, Cycle(tuple(order))


def three_color_cycle_plus(g: Graph, c: Cycle) -> dict:
    """Proper 3-coloring of g (colors 1..3), found on the transformed
    graph and restricted back to V(g)."""
    g2, _ = subdivision_transform(g, c)
    coloring = _backtrack_three_color(g2)
    if coloring is None:
        raise InvariantViolation(
            "coloring", "3-coloring search exhausted on a cycle-plus-triangles graph"
        )
    out = {v: coloring[v] for v in range(g.n)}
    for u, v in g.edges:
        if out[u] == out[v]:
            raise InvariantViolation("coloring", "restricted coloring is not proper")
    return out


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
    chosen = None
    for col in (1, 2, 3):
        if not (classes[col] & forbidden):
            chosen = col
            break
    if chosen is None:
        raise InvariantViolation(
            "coloring", "two forbidden vertices cover three color classes"
        )
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
