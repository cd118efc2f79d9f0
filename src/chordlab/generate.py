"""Test-universe generation: all connected cubic graphs up to isomorphism
at small n, random cubic graphs, and synthetic instances for the
Hamilton-cycle lemmas.

The exhaustive enumeration is an orderly (canonical-extension) search over
column codes: a labeled graph is encoded by the columns of its adjacency
upper triangle, code compared bitwise with earlier bits more significant,
and exactly the lexicographically maximal labelings are kept.  Deleting
the last vertex of a maximal code leaves a maximal code, so extending
canonical prefixes one vertex at a time and keeping the canonical results
enumerates every isomorphism class exactly once.  Speed is secondary to
trust here: the canonicity test is a plain backtracking search over
relabelings.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .graphs import Graph, _is_connected
from .search import Cycle


# ---------------------------------------------------------------------------
# canonical codes


def _column(mask: int, placed) -> int:
    col = 0
    for p in placed:
        col = (col << 1) | ((mask >> p) & 1)
    return col


def _is_max_code(masks, n, cols) -> bool:
    """True iff no relabeling yields a strictly larger column code."""
    used = [False] * n
    placed = []

    def rec(j):
        if j == n:
            return False
        for u in range(n):
            if used[u]:
                continue
            if j > 0:
                col = _column(masks[u], placed)
                target = cols[j - 1]
                if col > target:
                    return True
                if col < target:
                    continue
            used[u] = True
            placed.append(u)
            beaten = rec(j + 1)
            placed.pop()
            used[u] = False
            if beaten:
                return True
        return False

    return not rec(0)


def canonical_code(g: Graph) -> tuple:
    """Maximal column code over all relabelings: a complete isomorphism
    invariant usable as a canonical form."""
    code, _ = _canonical_search(g.masks, g.n)
    return code


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group (relabelings achieving the maximal
    code)."""
    _, aut = _canonical_search(g.masks, g.n)
    return aut


def _canonical_search(masks, n):
    if n == 0:
        return (), 1
    best = None
    aut = 0
    used = [False] * n
    placed = []
    cur = []

    def rec(j, better):
        nonlocal best, aut
        if j == n:
            code = tuple(cur)
            if best is None or code > best:
                best = code
                aut = 1
            elif code == best:
                aut += 1
            return
        for u in range(n):
            if used[u]:
                continue
            if j == 0:
                used[u] = True
                placed.append(u)
                rec(1, better)
                placed.pop()
                used[u] = False
                continue
            col = _column(masks[u], placed)
            nb = better
            if not better and best is not None and j - 1 < len(best):
                if col < best[j - 1]:
                    continue
                if col > best[j - 1]:
                    nb = True
            used[u] = True
            placed.append(u)
            cur.append(col)
            rec(j + 1, nb)
            cur.pop()
            placed.pop()
            used[u] = False

    rec(0, False)
    return best, aut


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _graph_from_cols(n, cols) -> Graph:
    edges = []
    for j in range(1, n):
        col = cols[j - 1]
        for i in range(j):
            if (col >> (j - 1 - i)) & 1:
                edges.append((i, j))
    return Graph(n, edges)


def _completable(masks, degs, k, n) -> bool:
    m = n - k
    deficits = [3 - d for d in degs]
    total = sum(deficits)
    if total > 3 * m or any(d > m for d in deficits):
        return False
    if (3 * m - total) % 2:
        return False
    if m > 0 and k > 0:
        # a saturated component now can never be joined later
        seen = set()
        for start in range(k):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                w = masks[u]
                while w:
                    b = w & (-w)
                    w ^= b
                    v = b.bit_length() - 1
                    if v not in comp:
                        comp.add(v)
                        stack.append(v)
            seen |= comp
            if all(degs[v] == 3 for v in comp):
                return False
    return True


def enumerate_cubic(n: int):
    """All connected cubic graphs on n vertices, one per isomorphism
    class, in decreasing canonical-code order."""
    if n % 2 or not 4 <= n <= 14:
        raise ValueError(f"n must be even with 4 <= n <= 14, got {n}")
    level = [((), (0,), (0,))]  # (cols, degs, masks) on 1 vertex
    for k in range(1, n):
        nxt = []
        for cols, degs, masks in level:
            eligible = [i for i in range(k) if degs[i] < 3]
            for size in range(0, 4):
                for subset in itertools.combinations(eligible, size):
                    col = 0
                    for i in subset:
                        col |= 1 << (k - 1 - i)
                    ndegs = list(degs) + [size]
                    nmasks = list(masks) + [0]
                    for i in subset:
                        ndegs[i] += 1
                        nmasks[i] |= 1 << k
                        nmasks[k] |= 1 << i
                    if not _completable(nmasks, ndegs, k + 1, n):
                        continue
                    ncols = cols + (col,)
                    if _is_max_code(nmasks, k + 1, ncols):
                        nxt.append((ncols, tuple(ndegs), tuple(nmasks)))
        level = nxt
    out = []
    for cols, degs, masks in level:
        if all(d == 3 for d in degs):
            g = _graph_from_cols(n, cols)
            if _is_connected(g):
                out.append((cols, g))
    out.sort(key=lambda t: t[0], reverse=True)
    return [g for _, g in out]


def random_cubic(n: int, seed: int) -> Graph:
    """Random simple cubic graph from the half-edge pairing model,
    rejecting loops and parallel edges; deterministic per seed."""
    if n % 2 or n < 4:
        raise ValueError(f"n must be even and >= 4, got {n}")
    rng = random.Random(seed)
    while True:
        halves = [v for v in range(n) for _ in range(3)]
        rng.shuffle(halves)
        pairs = [(halves[i], halves[i + 1]) for i in range(0, len(halves), 2)]
        if any(u == v for u, v in pairs):
            continue
        norm = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(norm) != len(pairs):
            continue
        return Graph(n, pairs)


# ---------------------------------------------------------------------------
# lemma instances


@dataclass(frozen=True)
class LemmaInstance:
    """A graph with a Hamilton cycle C and an independent-on-C set A whose
    removal from C leaves |A| arcs, every endpoint of each non-final arc
    joined to A by a chord.  The final arc is the distinguished one."""

    g: Graph
    cycle: Cycle
    a_set: frozenset
    components: tuple  # ordered vertex tuples, distinguished arc last

    @property
    def k(self) -> int:
        return len(self.a_set)

    def check(self):
        """Assert every hypothesis clause separately; returns self."""
        self.cycle.validate(self.g)
        if self.cycle.length != self.g.n:
            raise AssertionError("cycle is not Hamilton")
        cyc_edges = self.cycle.edge_set()
        for a in self.a_set:
            for b in self.a_set:
                if a != b and (min(a, b), max(a, b)) in cyc_edges:
                    raise AssertionError("A is not independent on C")
        if len(self.components) != self.k:
            raise AssertionError("arc count differs from |A|")
        covered = set()
        for comp in self.components:
            covered |= set(comp)
            for a, b in zip(comp, comp[1:]):
                if not self.g.has_edge(a, b):
                    raise AssertionError("arc is not a path")
        if covered | self.a_set != set(range(self.g.n)) or covered & self.a_set:
            raise AssertionError("arcs and A do not partition the vertices")
        for comp in self.components[:-1]:
            for end in (comp[0], comp[-1]):
                if not any(
                    self.g.has_edge(end, a)
                    and (min(end, a), max(end, a)) not in cyc_edges
                    for a in self.a_set
                ):
                    raise AssertionError(
                        f"endpoint {end} of a non-final arc has no chord to A"
                    )
        return self


def gen_lemma_instance(k: int, seed: int) -> LemmaInstance:
    """Seeded instance: A spread around a cycle separating k arcs, chords
    wired from non-final arc endpoints to A."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = random.Random(k * 1_000_003 + seed)
    # a singleton arc's endpoint sits between two class vertices, so at
    # k = 2 it would have no chord target; keep non-final arcs longer then
    low = 2 if k == 2 else 1
    sizes = [rng.choice(tuple(range(low, 4))) for _ in range(k - 1)]
    sizes.append(rng.choice((1, 2, 3)))
    order = []
    components = []
    a_set = []
    for size in sizes:
        arc = []
        for _ in range(size):
            arc.append(len(order))
            order.append(len(order))
        a_set.append(len(order))
        order.append(len(order))
        components.append(tuple(arc))
    n = len(order)
    cycle_edges = [(i, (i + 1) % n) for i in range(n)]
    cyc_keys = {(min(u, v), max(u, v)) for u, v in cycle_edges}
    chords = set()
    for comp in components[:-1]:
        for end in {comp[0], comp[-1]}:
            targets = [
                a for a in a_set
                if (min(end, a), max(end, a)) not in cyc_keys
            ]
            t = rng.choice(targets)
            chords.add((min(end, t), max(end, t)))
    g = Graph(n, cycle_edges + sorted(chords))
    inst = LemmaInstance(
        g=g,
        cycle=Cycle(tuple(range(n))),
        a_set=frozenset(a_set),
        components=tuple(components),
    )
    return inst.check()


def gen_cycle_plus_instance(n: int, seed: int):
    """Seeded Hamilton cycle plus vertex-disjoint triangles / order-3
    paths packed on it; returns (graph, hamilton cycle)."""
    if n < 6:
        raise ValueError(f"n must be >= 6, got {n}")
    rng = random.Random(n * 1_000_003 + seed)
    cycle_edges = [(i, (i + 1) % n) for i in range(n)]
    cyc_keys = {(min(u, v), max(u, v)) for u, v in cycle_edges}
    verts = list(range(n))
    rng.shuffle(verts)
    extra = []
    while len(verts) >= 3:
        tri = sorted((verts.pop(), verts.pop(), verts.pop()))
        pairs = list(itertools.combinations(tri, 2))
        on_cycle = sum(1 for p in pairs if p in cyc_keys)
        if on_cycle >= 2:
            continue
        if rng.random() < 0.2:
            continue
        extra.extend(p for p in pairs if p not in cyc_keys)
    g = Graph(n, cycle_edges + extra)
    return g, Cycle(tuple(range(n)))


def random_simple_path(g: Graph, seed: int):
    """Seeded self-avoiding walk used to sample candidate (x,y)-paths;
    may stop early so short non-maximal paths occur too."""
    rng = random.Random(seed)
    x = rng.randrange(g.n)
    path = [x]
    seen = {x}
    while True:
        nbrs = [w for w in g.neighbors(path[-1]) if w not in seen]
        if not nbrs:
            break
        if len(path) >= 2 and rng.random() < 0.2:
            break
        nxt = rng.choice(sorted(set(nbrs)))
        path.append(nxt)
        seen.add(nxt)
    if len(path) < 2:
        return random_simple_path(g, seed + 10007)
    from .search import Path

    return Path(tuple(path))
