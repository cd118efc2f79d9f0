"""Exact search surface: longest (x,y)-paths, longest cycles, Hamilton
cycles, bound-vertex detection and chord counting.

Exactness matters here: the verified statements quantify over *longest*
paths and cycles, so every search is exhaustive, never heuristic.
Witness enumeration dedupes by direction (a path and its reverse count
once; cycles are stored min-vertex-first with the smaller neighbor
second).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .graphs import Graph, vertex_bits, vertex_mask


def walk_problem(masks, vs, closed=False):
    """The first reason that ``vs`` is not a simple path of the graph with
    adjacency bit masks ``masks``, or None; with ``closed``, not a cycle,
    whose last vertex must also join its first."""
    kind = "cycle" if closed else "path"
    if len(vs) < 2 + closed:
        return f"{kind} needs at least {'three' if closed else 'two'} vertices"
    if len(set(vs)) != len(vs):
        return f"repeated vertex in {kind}"
    n = len(masks)
    for a, b in zip(vs, vs[1:] + vs[:1] if closed else vs[1:]):
        if not (0 <= a < n and 0 <= b < n):
            return f"vertex out of range in {kind}: {a},{b}"
        if not masks[a] >> b & 1:
            return f"({a},{b}) is not an edge"
    return None


@dataclass(frozen=True)
class Path:
    """Simple path as an ordered vertex tuple.

    ``_class_in``, not a field (so ``==``, ``hash``, ``repr`` and
    ``asdict`` ignore it), is (graph, classification) from the last
    `extender.precheck` that classified the path, which replaces it whole
    and reads it back for the same `Graph` object alone: exact, as
    neither changes.  Its one other setter, `extender._finish`, copies it
    onto the reverse of a classified path, whose classification is the
    same.
    """

    vertices: tuple
    _class_in = (None, None)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(map(int, self.vertices)))

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def x(self) -> int:
        return self.vertices[0]

    @property
    def y(self) -> int:
        return self.vertices[-1]

    def interior(self) -> tuple:
        return self.vertices[1:-1]

    def reversed(self) -> "Path":
        return Path(tuple(reversed(self.vertices)))

    def validate(self, g: Graph) -> "Path":
        problem = walk_problem(g.masks, self.vertices)
        if problem:
            raise ValueError(problem)
        return self

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class Cycle:
    """Simple cycle as a canonical cyclic vertex tuple: minimum vertex
    first, then its smaller neighbor.  A repeated vertex is refused."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", _canon_cycle(self.vertices))

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edge_pairs(self) -> tuple:
        vs = self.vertices
        return tuple(
            (a, b) if a < b else (b, a) for a, b in zip(vs, vs[1:] + vs[:1])
        )

    def edge_set(self) -> frozenset:
        return frozenset(self.edge_pairs())

    def validate(self, g: Graph) -> "Cycle":
        problem = cycle_problem(g, self.vertices)
        if problem:
            raise ValueError(problem)
        return self


def cycle_problem(g: Graph, vs, extra_edges=()):
    """`walk_problem` of the closed walk ``vs`` in g with the pairs
    ``extra_edges`` added."""
    masks = g.masks
    if extra_edges:
        masks = list(masks)
        for a, b in extra_edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return walk_problem(masks, vs, closed=True)


def _canon_cycle(seq) -> tuple:
    vs = tuple(map(int, seq))
    if len(vs) < 3:
        raise ValueError("cycle needs at least three vertices")
    if len(set(vs)) != len(vs):
        raise ValueError("repeated vertex in cycle")
    k = vs.index(min(vs))
    rot = vs[k:] + vs[:k]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


@dataclass(frozen=True)
class PathReport:
    """All maximum-length (x,y)-paths plus their bound-vertex sets."""

    max_length: int
    witnesses: tuple
    bound_sets: tuple


def kernel_masks(g: Graph) -> tuple:
    """``g.masks`` after the limits every search kernel shares."""
    if g.n >= 63:
        raise ValueError("search kernels support n < 63")
    return g.masks


def internal_bound_vertices(g: Graph, p: Path) -> frozenset:
    """Internal vertices of p whose whole host neighborhood lies on p."""
    p.validate(g)
    masks, off = g.masks, ~vertex_mask(p.vertices)
    return frozenset(v for v in p.interior() if not masks[v] & off)


def longest_xy_paths(g: Graph, x: int, y: int) -> PathReport:
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"endpoint out of range: {x},{y}")
    if x == y:
        raise ValueError("endpoints must differ")
    adj = kernel_masks(g)
    rows = kernels.xy_paths_of_length(adj, g.n, x, y, None)
    if not rows:
        raise ValueError(f"no ({x},{y})-path exists")
    witnesses = tuple(Path(row) for row in rows)
    bounds = tuple(internal_bound_vertices(g, w) for w in witnesses)  # validates
    return PathReport(len(rows[0]) - 1, witnesses, bounds)


def longest_cycles(g: Graph):
    """The longest cycles as validated `Cycle`s, in ascending order."""
    adj = kernel_masks(g)
    rows = kernels.cycles_of_length(adj, g.n, None)
    if not rows:
        raise ValueError("graph is acyclic")
    return [Cycle(row).validate(g) for row in rows]


def hamilton_cycles(g: Graph):
    """The Hamilton cycles as validated `Cycle`s, in ascending order."""
    adj = kernel_masks(g)
    return [Cycle(row).validate(g) for row in kernels.hamilton_cycle_rows(adj, g.n)]


def chord_scan(masks, vs):
    """Each chord of the closed walk ``vs`` in the graph with adjacency
    masks ``masks``, once from each end: u in walk order, then each
    neighbour v of u on the walk but not next to it along it, ascending.
    The walk is not checked."""
    on, k = vertex_mask(vs), len(vs)
    for i, u in enumerate(vs):
        for v in vertex_bits(masks[u] & on & ~(1 << vs[i - 1] | 1 << vs[i + 1 - k])):
            yield u, v


def chords(g: Graph, c: Cycle) -> frozenset:
    """Edges of g joining two cycle vertices that are not cycle edges."""
    c.validate(g)
    return frozenset((u, v) for u, v in chord_scan(g.masks, c.vertices) if u < v)
