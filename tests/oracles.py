"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: permutation-based path/cycle
enumeration, a from-scratch graph6 encoder, half-edge pairing enumeration
of cubic graphs with backtracking isomorphism tests, plain relabeling
backtracks for the maximal column code, Menger-style connectivity, and a
labeled-count recurrence.  None of it shares logic with the library
kernels it is used to check, with four exceptions.  ``xy_sweep_reference``
is the sweep kernel's earlier, plainer body, kept as the reference its
faster replacement is compared with.  ``zhan_table`` is `verify_zhan`'s
earlier full table, every pair swept with the kernel at floor n - 1, the
reference for the entries, minimum and first violating pair that the
verifier now computes with a length floor and rotations.  The parity-lemma check at the end
counts Hamilton cycles with the library's `hamilton_cycles`, which
`test_search.py` checks against a DFS oracle on the same support graphs;
it compares their edges off A as sets of pairs, where the second-cycle
step compares neighbour masks.
``cubic_codes_by_level`` is the enumeration's earlier level-by-level
body, the reference for its depth-first walk.  It keeps its own copy of
the earlier completability prune, ``completable_reference`` (the
counting checks and fact 4, without facts 5 and 6), and shares the
walk's canonicity test, which the relabeling backtrack checks on its own.
``completable`` is the walk's earlier judge of a child, read from the
child's columns and degrees, the reference for the judge that reads its
parent's running totals.
``walk_problem_reference`` and ``check_sweep_entry_reference`` are the
library's earlier path check and `verify_zhan`'s earlier witness
re-check, written out with a set and `Graph.has_edge`, so they share no
code with `search.walk_problem`, which they are compared with.  The
extender's scans over the host's bit masks have their earlier set-based
bodies here: ``components_after_deletion_reference``,
``internal_bound_vertices_reference``, ``attached_components_reference``,
``through_component_reference`` and ``precheck_chord_reference``.  The
library carries each component as a vertex bit mask; these references
keep frozensets, and the tests compare them through
`graphs.vertex_mask`, component order included.
``contraction_edges_reference`` states the order, written with
``sorted``, in which `extender._contraction_edges` numbers the blue
edges.  ``chords_reference`` is the earlier body of `search.chords`, a
scan of ``g.edges`` against the cycle's vertex and edge sets, the
reference for its mask form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from chordlab import kernels, verify
from chordlab.errors import InvariantViolation
from chordlab.generate import _is_max_code
from chordlab.graphs import Graph, components_after_deletion, vertex_bits
from chordlab.search import hamilton_cycles

# ---------------------------------------------------------------------------
# graph zoo


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def k4() -> Graph:
    return Graph(4, list(itertools.combinations(range(4), 2)))


def k33() -> Graph:
    return Graph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])


def prism() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def two_k4_minus_edge_bridge() -> Graph:
    """Two K4-minus-an-edge blocks joined by two edges: cubic, kappa = 2."""
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
             (0, 4), (1, 5)]
    return Graph(8, edges)


# ---------------------------------------------------------------------------
# the extender's earlier set-based scans


def components_after_deletion_reference(g: Graph, removed) -> tuple:
    """`components_after_deletion` with a seen set: each frozenset built
    from its component's breadth-first order, neighbours ascending."""
    seen = set(removed)
    if not seen <= set(range(g.n)):
        raise ValueError("removed set contains out-of-range ids")
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for u in comp:
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(frozenset(comp))
    return tuple(comps)


def internal_bound_vertices_reference(g: Graph, p) -> frozenset:
    on_path = set(p.vertices)
    return frozenset(v for v in p.interior() if on_path.issuperset(g.neighbors(v)))


def attached_components_reference(g: Graph, on) -> list:
    on = frozenset(on)
    return [
        (comp, sorted({w for v in comp for w in g.neighbors(v) if w in on}))
        for comp in components_after_deletion_reference(g, on)
    ]


def through_component_reference(g: Graph, a: int, b: int, comp, min_len: int):
    """`extender._through_component` with a distance dict: the vertex
    tuple of the least (a,b)-path of length >= min_len through comp, or
    None."""
    inner = frozenset(comp) - {a, b}
    dist = {b: 0}
    frontier = [b]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in inner and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    reach = [dist[w] for w in g.neighbors(a) if w in dist]
    if not reach:
        return None
    for L in range(max(min_len, 1 + min(reach)), len(inner) + 2):
        seq = [a]
        stack = [iter(g.neighbors(a))]
        while stack:
            left = L - len(stack)
            for w in stack[-1]:
                if w == b:
                    if left == 0:
                        return tuple(seq) + (b,)
                elif dist.get(w, left + 1) <= left and w not in seq:
                    seq.append(w)
                    stack.append(iter(g.neighbors(w)))
                    break
            else:
                stack.pop()
                seq.pop()
    return None


def contraction_edges_reference(g: Graph, comp, rep: int, on) -> list:
    """`extender._contraction_edges` over sets: for each member v of comp
    in ascending order, each neighbour w of v in ascending order that lies
    on ``on`` and is not rep."""
    on = set(on)
    return [w for v in sorted(comp) for w in sorted(g.neighbors(v)) if w in on and w != rep]


def precheck_chord_reference(g: Graph, p):
    """The first chord (u, w) of p that `extender.precheck` names: u first
    in path order, then w least; None when p has no chord.  The edge xy
    is no chord."""
    x, y = p.x, p.y
    pos = {v: i for i, v in enumerate(p.vertices)}
    for i, u in enumerate(p.vertices):
        for w in g.neighbors(u):
            if w in pos and abs(i - pos[w]) > 1 and {u, w} != {x, y}:
                return u, w
    return None


def chords_reference(g: Graph, c) -> frozenset:
    """`search.chords` as a scan of every edge of g against the cycle's
    vertex set and edge set."""
    on_cycle = set(c.vertices)
    cycle_edges = c.edge_set()
    return frozenset(
        (u, v) for u, v in g.edges
        if u in on_cycle and v in on_cycle and (u, v) not in cycle_edges
    )


# ---------------------------------------------------------------------------
# naive path / cycle enumeration (permutation-based)


def through_component_naive(g: Graph, a: int, b: int, comp, min_len: int):
    """Every (a,b)-path with interior in comp and at least min_len edges,
    listed outright; the least by (length, vertex sequence), or None."""
    comp = frozenset(comp)
    stack = [(a, (a,))]
    results = []
    while stack:
        cur, seq = stack.pop()
        for w in g.neighbors(cur):
            if w == b:
                if len(seq) >= min_len:
                    results.append(seq + (b,))
                continue
            if w in comp and w not in seq:
                stack.append((w, seq + (w,)))
    return min(results, key=lambda s: (len(s), s), default=None)


def all_xy_paths_naive(g: Graph, x: int, y: int):
    """Every simple (x,y)-path, via permutations of interior subsets."""
    rest = [v for v in range(g.n) if v not in (x, y)]
    paths = []
    for r in range(len(rest) + 1):
        for subset in itertools.combinations(rest, r):
            for perm in itertools.permutations(subset):
                seq = (x, *perm, y)
                if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
                    paths.append(seq)
    return paths


def longest_xy_naive(g: Graph, x: int, y: int):
    paths = all_xy_paths_naive(g, x, y)
    if not paths:
        return 0, []
    best = max(len(p) - 1 for p in paths)
    return best, sorted(p for p in paths if len(p) - 1 == best)


def all_cycles_naive(g: Graph):
    """Every cycle, canonical as (min vertex, smaller neighbor second, ...)."""
    out = set()
    verts = range(g.n)
    for r in range(3, g.n + 1):
        for subset in itertools.combinations(verts, r):
            s = subset[0]
            for perm in itertools.permutations(subset[1:]):
                seq = (s, *perm)
                if perm[0] > perm[-1]:
                    continue
                closed = seq + (s,)
                if all(g.has_edge(a, b) for a, b in zip(closed, closed[1:])):
                    out.add(seq)
    return sorted(out)


def all_cycles_small(adj):
    """All cycles of a small simple graph given as {v: set(w)} on arbitrary
    labels; canonical (min vertex first, smaller neighbor second).  The
    extender's matching step searched its compressed graph with this
    before it read the cycle kernel."""
    verts = sorted(adj)
    out = []

    def dfs(s, cur, seq, visited):
        for w in sorted(adj[cur]):
            if w == s and len(seq) >= 3 and seq[1] < seq[-1]:
                out.append(tuple(seq))
            if w <= s or w in visited:
                continue
            seq.append(w)
            visited.add(w)
            dfs(s, w, seq, visited)
            visited.discard(w)
            seq.pop()

    for s in verts:
        dfs(s, s, [s], {s})
    return out


def longest_cycles_naive(g: Graph):
    cycles = all_cycles_naive(g)
    if not cycles:
        return 0, []
    best = max(len(c) for c in cycles)
    return best, sorted(c for c in cycles if len(c) == best)


def hamilton_cycles_naive(g: Graph):
    return [c for c in all_cycles_naive(g) if len(c) == g.n]


def xy_sweep_reference(masks, n, x):
    """The per-source sweep as ``kernels.xy_sweep`` first computed it:
    every simple path from x by exhaustive DFS, children in ascending id,
    the bound count updated by rescanning every neighbour of the new end.
    Same table: indexed by end vertex y, None for y == x or no path, else
    (longest length, least internal bound count, first such path)."""
    nbrs = [[u for u in range(n) if (m >> u) & 1] for m in masks]
    best = [0] * n
    low = [0] * n
    first = [None] * n
    path = [x]

    def visit(v, pm, length, bound):
        length += 1
        for w in nbrs[v]:
            if (pm >> w) & 1:
                continue
            pm2 = pm | (1 << w)
            # appending w can only bind path vertices adjacent to w
            c = bound
            for u in nbrs[w]:
                if u != x and (pm >> u) & 1 and masks[u] & ~pm2 == 0:
                    c += 1
            path.append(w)
            if length > best[w] or (length == best[w] and c < low[w]):
                best[w] = length
                low[w] = c
                first[w] = tuple(path)
            visit(w, pm2, length, c)
            path.pop()

    visit(x, 1 << x, 0, 0)
    return [
        (best[y], low[y], first[y]) if first[y] is not None else None
        for y in range(n)
    ]


def zhan_table(g: Graph, mode: str) -> dict:
    """Every pair of ``verify_zhan``'s mode as it first filled its table:
    {(x, y): PairResult} in (x, y) order, each source swept with the
    kernel at floor n - 1, which is exact on every target, and every
    entry re-checked by ``verify._check_sweep_entry``."""
    masks = g.masks
    pairs = {}
    for x in range(g.n):
        ends = masks[x] if mode == "adjacent-pairs" else (1 << g.n) - 1
        targets = ends & (-2 << x)
        table = kernels.xy_sweep(masks, x, targets, g.n - 1)
        for y in range(x + 1, g.n):
            if (targets >> y) & 1:
                verify._check_sweep_entry(g, x, y, table[y])
                pairs[(x, y)] = verify.PairResult(*table[y])
    return pairs


def walk_problem_reference(g: Graph, vs, closed=False, extra_edges=()):
    """A plain ``search.walk_problem``: the library's earlier
    `Path.validate`, by a set and `Graph.has_edge`, with the closing step
    of a cycle and its ``extra_edges`` added; the same messages."""
    kind = "cycle" if closed else "path"
    if len(vs) < (3 if closed else 2):
        return f"{kind} needs at least {'three' if closed else 'two'} vertices"
    if len(set(vs)) != len(vs):
        return f"repeated vertex in {kind}"
    extra = {frozenset(e) for e in extra_edges}
    steps = list(zip(vs, vs[1:])) + ([(vs[-1], vs[0])] if closed else [])
    for a, b in steps:
        if not (0 <= a < g.n and 0 <= b < g.n):
            return f"vertex out of range in {kind}: {a},{b}"
        if not g.has_edge(a, b) and frozenset((a, b)) not in extra:
            return f"({a},{b}) is not an edge"
    return None


def check_sweep_entry_reference(g: Graph, x: int, y: int, entry):
    """``verify._check_sweep_entry`` as it first re-checked a table entry,
    with the same messages: the witness validated by
    `walk_problem_reference` and its bound vertices listed as
    `internal_bound_vertices` did it."""
    if entry is None:
        raise InvariantViolation("sweep", f"pair ({x},{y}): no path in the table")
    best, mb, wit = entry
    problem = walk_problem_reference(g, wit)
    if problem:
        raise InvariantViolation("sweep", f"pair ({x},{y}): witness {wit}: {problem}")
    on_path = set(wit)
    bound = [v for v in wit[1:-1] if on_path.issuperset(g.neighbors(v))]
    if (wit[0], wit[-1]) != (x, y) or len(wit) - 1 != best or len(bound) != mb:
        raise InvariantViolation(
            "sweep",
            f"pair ({x},{y}): witness {wit} has length {len(wit) - 1} and "
            f"{len(bound)} internal bound vertices, table says {best} and {mb}",
        )


# ---------------------------------------------------------------------------
# reference encoders (written against the formats, not the parsers)


def encode_graph6_reference(g: Graph) -> str:
    assert g.n < 63
    matrix = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        matrix[u][v] = matrix[v][u] = 1
    stream = ""
    for col in range(g.n):
        for row in range(col):
            stream += "1" if matrix[row][col] else "0"
    stream += "0" * (-len(stream) % 6)
    chars = [chr(63 + g.n)]
    for i in range(0, len(stream), 6):
        chars.append(chr(63 + int(stream[i:i + 6] or "0", 2)))
    return "".join(chars)


def edge_list_text(g: Graph) -> str:
    """The edge-list format `read_edge_list` accepts: an "n m" header,
    then one "u v" line per edge."""
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# backtracking isomorphism (independent of the library canonical form)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    dg, dh = ([len(f.neighbors(v)) for v in range(f.n)] for f in (g, h))
    if g.n != h.n or sorted(dg) != sorted(dh):
        return False
    gm, hm = g.masks, h.masks

    def extend(mapping, used):
        v = len(mapping)
        if v == g.n:
            return True
        for w in range(h.n):
            if w in used or dh[w] != dg[v]:
                continue
            ok = True
            for u in range(v):
                if ((gm[v] >> u) & 1) != ((hm[w] >> mapping[u]) & 1):
                    ok = False
                    break
            if ok and extend(mapping + [w], used | {w}):
                return True
        return False

    return extend([], set())


# ---------------------------------------------------------------------------
# maximal column codes by plain relabeling backtracks (no pruning beyond
# comparing each column with the best code so far)


def _column(mask: int, placed) -> int:
    col = 0
    for p in placed:
        col = (col << 1) | ((mask >> p) & 1)
    return col


def is_max_code_backtrack(masks, n, cols) -> bool:
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


def _children(level, k):
    """Every child of each prefix on k vertices: a new vertex k joined to
    one to three earlier vertices of degree below 3, as (cols, degs,
    masks)."""
    for cols, degs, masks in level:
        eligible = [i for i in range(k) if degs[i] < 3]
        for size in (1, 2, 3):
            for subset in itertools.combinations(eligible, size):
                col = 0
                ndegs = list(degs) + [size]
                nmasks = list(masks) + [0]
                for i in subset:
                    col |= 1 << (k - 1 - i)
                    ndegs[i] += 1
                    nmasks[i] |= 1 << k
                    nmasks[k] |= 1 << i
                yield cols + (col,), ndegs, nmasks


def completable(cols, degs, n) -> bool:
    """The enumeration's earlier judge of a child, from its columns and
    degrees alone: facts 4, 5 and 6 of `chordlab.generate` and the
    counting checks, parity included.  The reference for the walk, which
    judges each child from its parent's totals."""
    # fact 6: swapping the last two labels would give a larger column
    if len(cols) > 1 and cols[-1] >> 1 > cols[-2]:
        return False
    m = n - len(degs)
    if m == 0:
        return min(degs) == 3
    deficits = [3 - d for d in degs]
    total = sum(deficits)
    # fact 5: total >= 3m - m(m - 1) = m(4 - m); for m >= 4 that is no
    # bound, and total == 0 would leave the prefix a component of its own
    if (
        total == 0
        or total < m * (4 - m)
        or total > 3 * m
        or max(deficits) > m
        or (3 * m - total) % 2
    ):
        return False
    # fact 4: a later vertex joins i, the first position below degree 3
    i = next(v for v, d in enumerate(degs) if d < 3)
    return all(cols[j - 1] >> (j - 1 - i) for j in range(i + 1, len(degs)))


def completable_reference(cols, degs, n) -> bool:
    """The enumeration's earlier completability prune: the degree
    counting checks and fact 4 of `chordlab.generate`, without facts 5
    and 6."""
    m = n - len(degs)
    if m == 0:
        return min(degs) == 3
    deficits = [3 - d for d in degs]
    total = sum(deficits)
    if total == 0 or total > 3 * m or max(deficits) > m or (3 * m - total) % 2:
        return False
    i = next(v for v, d in enumerate(degs) if d < 3)
    return all(cols[j - 1] >> (j - 1 - i) for j in range(i + 1, len(degs)))


def cubic_prefixes_by_level(n: int, prefix=((), (0,), (0,))) -> list:
    """The canonical prefixes that the enumeration's earlier body kept
    under `completable_reference`, below ``prefix`` on k0 vertices, given
    as (cols, degs, masks) (by default the one on 1 vertex): entry j
    lists those on k0 + j vertices as (cols, degs, masks), up to n."""
    levels = [[prefix]]
    for k in range(len(prefix[1]), n):
        levels.append(
            [
                (cols, degs, masks)
                for cols, degs, masks in _children(levels[-1], k)
                if completable_reference(cols, degs, n)
                and _is_max_code(
                    masks, [[w for w in range(k + 1) if m >> w & 1] for m in masks], k + 1, cols
                )
            ]
        )
    return levels


def cubic_codes_by_level(n: int) -> list:
    """The codes of `enumerate_cubic(n)` from the enumeration's earlier
    body: each level of canonical prefixes kept whole, the children of a
    level tested together and the codes sorted at the end."""
    return sorted((cols for cols, _, _ in cubic_prefixes_by_level(n)[-1]), reverse=True)


def canonical_code(g: Graph) -> tuple:
    """Maximal column code over all relabelings: a complete isomorphism
    invariant usable as a canonical form."""
    return _canonical_search(g.masks, g.n)[0]


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group (relabelings achieving the maximal
    code)."""
    return _canonical_search(g.masks, g.n)[1]


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
# pairing-model enumeration of cubic graphs (the counting oracle)


def labeled_cubic_graphs(n: int):
    """All labeled simple cubic graphs on n vertices, as edge tuples.

    Perfect pairings of the 3n half-edges, enumerated up to the order of
    each vertex's half-edges (i.e. by neighbor sets), rejecting loops and
    parallel edges as they would appear.
    """
    assert n % 2 == 0 and n >= 4
    out = []
    deg = [0] * n
    adjacency = [set() for _ in range(n)]
    edges = []

    def rec():
        pending = [v for v in range(n) if deg[v] < 3]
        if not pending:
            out.append(tuple(sorted(edges)))
            return
        v = pending[0]
        need = 3 - deg[v]
        cands = [u for u in pending[1:] if u not in adjacency[v]]
        for group in itertools.combinations(cands, need):
            if any(3 - deg[u] < 1 for u in group):
                continue
            for u in group:
                deg[u] += 1
                adjacency[v].add(u)
                adjacency[u].add(v)
                edges.append((v, u))
            deg[v] = 3
            rec()
            deg[v] -= need
            for u in group:
                deg[u] -= 1
                adjacency[v].discard(u)
                adjacency[u].discard(v)
                edges.pop()

    rec()
    return out


def _vertex_invariant_key(g: Graph) -> tuple:
    """Sorted per-vertex (edges among the neighbors, sorted common-neighbor
    counts with every other vertex): equal for isomorphic graphs."""
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    per_vertex = []
    for v in range(g.n):
        triangles = sum(1 for u in nbrs[v] for w in nbrs[v] if u < w and w in nbrs[u])
        common = sorted(len(nbrs[v] & nbrs[u]) for u in range(g.n) if u != v)
        per_vertex.append((triangles, tuple(common)))
    return tuple(sorted(per_vertex))


@lru_cache(maxsize=None)
def connected_cubic_classes_by_pairing(n: int) -> tuple:
    """Connected cubic graphs on n vertices up to isomorphism, from the
    pairing enumeration plus backtracking isomorphism rejection, run only
    against earlier classes with the same vertex invariants.  Cached: two
    tests assert on the n=8 run."""
    reps = []
    by_key = {}
    for edges in labeled_cubic_graphs(n):
        g = Graph(n, edges)
        if not _connected_without(g, frozenset()):
            continue
        same_key = by_key.setdefault(_vertex_invariant_key(g), [])
        if not any(are_isomorphic(g, r) for r in same_key):
            same_key.append(g)
            reps.append(g)
    return tuple(reps)


# ---------------------------------------------------------------------------
# labeled counting cross-check (independent of any enumeration above)


@lru_cache(maxsize=None)
def labeled_cubic_count(n: int) -> int:
    """Number of labeled simple cubic graphs on n vertices, by dynamic
    programming over residual-degree class counts."""
    if n % 2 or n < 4:
        return 0

    @lru_cache(maxsize=None)
    def count(state):
        # state: sorted tuple of residual degrees (>0) of unprocessed vertices
        if not state:
            return 1
        state = tuple(sorted(state))
        r = state[-1]
        rest = state[:-1]
        total = 0
        # choose how many neighbors come from each residual class of `rest`
        classes = {}
        for d in rest:
            classes[d] = classes.get(d, 0) + 1
        keys = sorted(classes)
        counts = [classes[k] for k in keys]

        def assign(i, left, chosen):
            nonlocal total
            if i == len(keys):
                if left == 0:
                    nxt = []
                    for k, c, take in zip(keys, counts, chosen):
                        nxt.extend([k] * (c - take))
                        nxt.extend([k - 1] * take)
                    ways = 1
                    for c, take in zip(counts, chosen):
                        ways *= comb(c, take)
                    total += ways * count(tuple(sorted(d for d in nxt if d > 0)))
                return
            for take in range(min(counts[i], left) + 1):
                assign(i + 1, left - take, chosen + [take])

        assign(0, r, [])
        return total

    return count(tuple([3] * n))


@lru_cache(maxsize=None)
def labeled_connected_cubic_count(n: int) -> int:
    """Connected labeled count from the all-graphs counts by the standard
    rooted inclusion-exclusion."""
    if n % 2 or n < 4:
        return 0
    total = labeled_cubic_count(n)
    for k in range(4, n, 2):
        total -= comb(n - 1, k - 1) * labeled_connected_cubic_count(k) * labeled_cubic_count(n - k)
    return total


# ---------------------------------------------------------------------------
# connectivity by cut enumeration, and Menger-style vertex connectivity


def _connected_without(g: Graph, removed) -> bool:
    alive = [v for v in range(g.n) if v not in removed]
    if not alive:
        return True
    seen = {alive[0]}
    todo = [alive[0]]
    while todo:
        u = todo.pop()
        for w in g.neighbors(u):
            if w not in removed and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(alive)


def connectivity_at_least_naive(g: Graph, k: int) -> bool:
    """The k-connectivity gate by deleting every vertex set of size < k
    and testing what is left for connectivity (the gate's definition)."""
    if g.n <= k or not _connected_without(g, frozenset()):
        return False
    for size in range(1, k):
        for cut in itertools.combinations(range(g.n), size):
            if not _connected_without(g, frozenset(cut)):
                return False
    return True


def vertex_connectivity_menger(g: Graph) -> int:
    """kappa(g) via max vertex-disjoint paths over non-adjacent pairs,
    computed with unit-capacity augmenting paths on the split digraph."""
    if g.n < 2:
        return 0
    if not _connected_without(g, frozenset()):
        return 0
    if all(g.has_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n)):
        return g.n - 1

    def max_disjoint(s, t):
        # node-splitting: v_in = 2v, v_out = 2v+1
        arcs = {}

        def add(a, b):
            arcs.setdefault(a, {})[b] = arcs.get(a, {}).get(b, 0) + 1

        for v in range(g.n):
            add(2 * v, 2 * v + 1)
        for u, v in set(g.edges):
            add(2 * u + 1, 2 * v)
            add(2 * v + 1, 2 * u)
        source, sink = 2 * s + 1, 2 * t
        flow = 0
        while True:
            prev = {source: None}
            stack = [source]
            while stack and sink not in prev:
                a = stack.pop()
                for b, cap in arcs.get(a, {}).items():
                    if cap > 0 and b not in prev:
                        prev[b] = a
                        stack.append(b)
            if sink not in prev:
                return flow
            b = sink
            while prev[b] is not None:
                a = prev[b]
                arcs[a][b] -= 1
                arcs.setdefault(b, {})[a] = arcs.get(b, {}).get(a, 0) + 1
                b = a
            flow += 1

    best = g.n
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if not g.has_edge(s, t):
                best = min(best, max_disjoint(s, t))
    return best


# ---------------------------------------------------------------------------
# the parity lemma: designated edges lie on evenly many Hamilton cycles


def _path_component_endpoints(g: Graph, comp) -> tuple:
    """Endpoints of a component known to induce a path (a singleton is its
    own endpoint pair)."""
    comp = set(comp)
    inside_deg = {v: sum(1 for w in g.neighbors(v) if w in comp) for v in comp}
    if any(d > 2 for d in inside_deg.values()):
        raise ValueError("component is not a path")
    ends = sorted(v for v, d in inside_deg.items() if d <= 1)
    if len(comp) == 1:
        return (ends[0], ends[0])
    if len(ends) != 2 or sum(inside_deg.values()) != 2 * (len(comp) - 1):
        raise ValueError("component is not a path")
    return (ends[0], ends[1])


@dataclass(frozen=True)
class ParityReport:
    checked_edges: tuple        # ((u, v), hamilton count) pairs
    all_even: bool
    preserved: bool             # every Hamilton cycle leaves C - A intact
    distinguished: tuple
    hamilton_count: int


def verify_parity_lemma(g: Graph, a_set) -> ParityReport:
    """Check the parity lemma on a graph with |A| path components off A:
    every edge outside the distinguished component (the one with an
    even-degree endpoint, else the last) incident to one of its endpoints
    lies on an even number of Hamilton cycles, and all Hamilton cycles
    agree off A."""
    a_set = frozenset(a_set)
    if len(a_set) < 2:
        raise ValueError("the parity hypotheses need |A| >= 2")
    comps = [frozenset(vertex_bits(c)) for c in components_after_deletion(g, a_set)]
    if len(comps) != len(a_set):
        raise ValueError(
            f"G - A has {len(comps)} components, expected |A| = {len(a_set)}"
        )
    ends = {comp: _path_component_endpoints(g, comp) for comp in comps}
    evens = [
        comp for comp in comps
        if any(len(g.neighbors(v)) % 2 == 0 for v in ends[comp])
    ]
    if len(evens) > 1:
        raise ValueError("more than one component has even-degree endpoints")
    distinguished = evens[0] if evens else comps[-1]
    for comp in comps:
        if comp == distinguished:
            continue
        for v in set(ends[comp]):
            if len(g.neighbors(v)) % 2 == 0:
                raise ValueError(
                    f"endpoint {v} of a non-distinguished component has even degree"
                )
    h_all = hamilton_cycles(g)
    comp_vertices = set(distinguished)
    inside = {
        (min(u, v), max(u, v))
        for u in comp_vertices for v in g.neighbors(u) if v in comp_vertices
    }
    checked = []
    for v in sorted(set(ends[distinguished])):
        for w in sorted(set(g.neighbors(v))):
            key = (min(v, w), max(v, w))
            if key in inside:
                continue
            count = sum(1 for h in h_all if key in h.edge_set())
            checked.append((key, count))
    def edges_off_a(h):
        return {e for e in h.edge_pairs() if e[0] not in a_set and e[1] not in a_set}

    preserved = all(edges_off_a(h) == edges_off_a(h_all[0]) for h in h_all)
    return ParityReport(
        checked_edges=tuple(checked),
        all_even=all(c % 2 == 0 for _, c in checked),
        preserved=preserved,
        distinguished=tuple(sorted(distinguished)),
        hamilton_count=len(h_all),
    )
