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
from .graphs import Graph


@dataclass(frozen=True)
class Path:
    """Simple path as an ordered vertex tuple."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))

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
        vs = self.vertices
        if len(vs) < 2:
            raise ValueError("path needs at least two vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("repeated vertex in path")
        for a, b in zip(vs, vs[1:]):
            if not (0 <= a < g.n and 0 <= b < g.n):
                raise ValueError(f"vertex out of range in path: {a},{b}")
            if not g.has_edge(a, b):
                raise ValueError(f"({a},{b}) is not an edge")
        return self

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class Cycle:
    """Cycle as a canonical cyclic vertex tuple: minimum vertex first,
    then its smaller neighbor."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", _canon_cycle(self.vertices))

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edge_pairs(self) -> tuple:
        vs = self.vertices
        return tuple(
            (min(a, b), max(a, b)) for a, b in zip(vs, vs[1:] + vs[:1])
        )

    def edge_set(self) -> frozenset:
        return frozenset(self.edge_pairs())

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def validate(self, g: Graph, extra_edges=()) -> "Cycle":
        vs = self.vertices
        if len(vs) < 3:
            raise ValueError("cycle needs at least three vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("repeated vertex in cycle")
        extra = {frozenset(e) for e in extra_edges}
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if not g.has_edge(a, b) and frozenset((a, b)) not in extra:
                raise ValueError(f"({a},{b}) is not an edge")
        return self

    def __iter__(self):
        return iter(self.vertices)


def _canon_cycle(seq) -> tuple:
    vs = tuple(int(v) for v in seq)
    if len(vs) < 3:
        raise ValueError("cycle needs at least three vertices")
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
    on_path = set(p.vertices)
    return frozenset(v for v in p.interior() if on_path.issuperset(g.neighbors(v)))


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
    adj = kernel_masks(g)
    rows = kernels.cycles_of_length(adj, g.n, None)
    if not rows:
        raise ValueError("graph is acyclic")
    cycles = sorted((Cycle(row) for row in rows), key=lambda c: c.vertices)
    for c in cycles:
        c.validate(g)
    return cycles


def hamilton_cycles(g: Graph):
    if g.n < 3:
        return []
    adj = kernel_masks(g)
    rows = kernels.hamilton_cycle_rows(adj, g.n)
    cycles = sorted((Cycle(row) for row in rows), key=lambda c: c.vertices)
    for c in cycles:
        c.validate(g)
    return cycles


def chords(g: Graph, c: Cycle) -> frozenset:
    """Edges of g joining two cycle vertices that are not cycle edges."""
    c.validate(g)
    on_cycle = c.vertex_set()
    cycle_edges = c.edge_set()
    out = set()
    for u, v in g.edges:
        if u in on_cycle and v in on_cycle and (u, v) not in cycle_edges:
            out.add((u, v))
    return frozenset(out)
