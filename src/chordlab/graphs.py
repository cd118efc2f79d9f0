"""Core undirected graph representation and small-graph structure tools.

Vertices are dense integer ids 0..n-1.  A graph is stored as its
adjacency bit masks only; its edges and neighbours are views computed
from them.  Graphs are simple: construction refuses a self-loop or a
repeated pair, so no other module checks for either.  Instances are
treated as immutable after construction and are safe to share between
threads: the one lazily stored connectivity value is computed from that
fixed structure only.
"""

from __future__ import annotations


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``masks[v]`` has bit w set iff vw is an edge, and it is the only
    stored adjacency: ``edges``, ``m``, `neighbors` and `has_edge` read
    it.  ``_cubic`` is stored at construction, True iff every vertex has
    degree 3 (the empty graph included), and `is_cubic` reads it.
    ``_kappa`` is None until `connectivity_at_least`, which answers for
    cubic graphs only, stores min(vertex connectivity, 3) there; on a
    graph that is not cubic it stays None.
    """

    __slots__ = ("n", "masks", "_cubic", "_kappa")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if masks[u] >> v & 1:
                raise ValueError(f"repeated edge ({min(u, v)},{max(u, v)})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.masks = tuple(masks)
        self._cubic = all(mask.bit_count() == 3 for mask in masks)
        self._kappa = None

    @property
    def edges(self) -> tuple:
        """The edges as (u, v) with u < v, in ascending order."""
        return tuple((u, v) for u, mask in enumerate(self.masks) for v in vertex_bits(mask >> u << u))

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def neighbors(self, v: int) -> list:
        """The neighbours of v, in ascending order."""
        return vertex_bits(self.masks[v])

    def has_edge(self, u: int, v: int) -> bool:
        return self.masks[u] >> v & 1 == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.masks == other.masks

    def __hash__(self):
        return hash(self.masks)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def is_cubic(g: Graph) -> bool:
    return g._cubic


def vertex_mask(vertices) -> int:
    """The bit mask with bit v set for each v in ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertex_bits(mask: int) -> list:
    """The vertices of ``mask``, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cycle_masks(vertices, n: int) -> list:
    """For each vertex 0..n-1, the mask of its neighbours on the closed
    walk ``vertices`` (0 off the walk)."""
    masks = [0] * n
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def reach_mask(masks, start: int, allowed: int) -> tuple:
    """(reach, around) from one flood fill, where ``masks[v]`` is v's
    neighbour mask.  ``reach`` is the mask of the vertices of ``start``
    and every vertex joined to one of them by a walk whose later vertices
    lie in the mask ``allowed``; ``around`` is the union of the neighbour
    masks of reach's vertices.  A start vertex outside ``allowed`` is
    walked like the others, and an empty ``allowed`` gives reach = start.
    The walk is breadth first, one layer per pass: each vertex of the
    layer adds its neighbour mask to around, and the vertices of
    ``allowed`` in around but not yet in reach make the next layer."""
    reach = frontier = start
    around = 0
    while frontier:
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            around |= masks[low.bit_length() - 1]
        frontier = around & allowed & ~reach
        reach |= frontier
    return reach, around


def _cubic_edge_connectivity(g: Graph) -> int:
    """min(edge connectivity, 3) of a cubic g, from one search: 0 when g
    is disconnected.  Bit i goes to the i-th non-tree edge of a spanning
    tree, and a vertex's label is the XOR of the bits of its non-tree
    edges.  The cover of the tree edge above v, the XOR of the labels in
    v's subtree, is then the set of non-tree edges that leave the
    subtree.  A tree edge with an empty cover is a bridge; a cover of one
    bit makes a 2-edge cut with that non-tree edge, and two equal covers
    make one with each other.  Two non-tree edges never cut, as the tree
    stays whole.  The non-tree edges of u are labelled when u is
    searched: they join u to the searched vertices other than its parent,
    as u's tree children are searched after it."""
    n, masks = g.n, g.masks
    parent = [0] * n
    label = [0] * n
    order = [0]
    seen, done, bit = 1, 0, 1
    for u in order:  # breadth first: the loop reads what it appends
        kids = masks[u] & ~seen
        seen |= kids
        for w in vertex_bits(kids):
            parent[w] = u
            order.append(w)
        for w in vertex_bits(masks[u] & done & ~(1 << parent[u])):
            label[u] ^= bit
            label[w] ^= bit
            bit <<= 1
        done |= 1 << u
    if len(order) < n:
        return 0
    kappa = 3
    covers = set()
    for v in reversed(order[1:]):  # every vertex after its subtree
        cover = label[v]
        if not cover:
            return 1
        if cover & (cover - 1) == 0 or cover in covers:
            kappa = 2
        covers.add(cover)
        label[parent[v]] ^= cover
    return kappa


def connectivity_at_least(g: Graph, k: int) -> bool:
    """True iff the cubic graph g has more than k vertices, is connected,
    and stays connected after deleting any fewer than k vertices.  Only
    k <= 3 is supported, and a g that is not cubic raises ValueError: the
    paper's statements concern cubic graphs only.  The first question
    stores min(vertex connectivity, 3) on g, which answers every k, so
    asking again costs an attribute read.

    The empty graph, cubic by the vacuous ``_cubic`` flag, has 0.  Any
    other g takes it from one search (`_cubic_edge_connectivity`, O(n)
    steps on ints of m - n + 1 bits), since its vertex connectivity
    equals its edge connectivity.  Edge cuts are never smaller
    (Whitney), and K4, which has no vertex cut, has both equal to 3.
    Conversely, take a least vertex cut S and a component C of g - S: by
    minimality each s in S has a neighbour in C and one in another
    component.  Put into X the set C and every s with two neighbours in
    C.  Then each s in S has exactly one edge between X and the rest (its
    one edge into C, or its one edge out of C + s), and no other edge
    leaves X, so |S| edges cut g."""
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    if g._kappa is None:
        if not is_cubic(g):
            raise ValueError("graph is not cubic")
        # the empty graph has no vertex 0 to start a cover search from
        g._kappa = _cubic_edge_connectivity(g) if g.n else 0
    return g._kappa >= k


def components_after_deletion(g: Graph, removed) -> tuple:
    """Connected components of the subgraph induced on V(g) minus
    ``removed``, as vertex bit masks in ascending order of their least
    member: one `reach_mask` flood fill each, from the least vertex not
    yet seen.  `extender._attached_components` makes the same walks and
    also reads their neighbourhoods."""
    n, masks = g.n, g.masks
    unseen = (1 << n) - 1
    for v in removed:
        if not 0 <= v < n:
            raise ValueError("removed set contains out-of-range ids")
        unseen &= ~(1 << v)
    comps = []
    while unseen:
        comp, _ = reach_mask(masks, unseen & -unseen, unseen)
        unseen ^= comp
        comps.append(comp)
    return tuple(comps)
