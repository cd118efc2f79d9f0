"""Test-universe generation: all connected cubic graphs up to isomorphism
at small n, random cubic graphs and random simple paths.

The exhaustive enumeration is an orderly search (McKay, *Isomorph-free
exhaustive generation*, J. Algorithms 1998) over column codes.  A labeled
graph on 0..k-1 is encoded by its columns: column j >= 1 holds the
adjacency of vertex j to 0..j-1, vertex 0 in the most significant bit, and
codes compare column by column.  Exactly the labelings with the maximal
code are kept.  Deleting the last vertex of a maximal code leaves a
maximal code, so extending canonical prefixes one vertex at a time and
keeping the canonical results enumerates every isomorphism class once.

The enumeration walks the tree of prefixes depth first.  It walks the
children of a prefix in decreasing last-column order, into those that
pass the canonicity test or, by fact 7 below, skip it.  Siblings share
their prefix, and every code of order n has n - 1 columns compared
column by column, so the walk meets the complete codes in decreasing
code order: it keeps one prefix per level and sorts nothing.
The walk judges a child from its parent's running totals before its
masks are built (see "Judging a child" below), and each child's masks
and neighbour lists are its parent's with the new vertex added, so the
canonicity test reads them as they are.

The canonicity test `_is_max_code` is exact: it looks for a relabeling
with a strictly larger code.  The search prunes by four facts about
connected graphs of maximum degree at most 3.

1. Nonzero columns.  In a maximal code every column j >= 1 is nonzero.
   Otherwise take the first zero column j: by connectivity some later
   vertex touches 0..j-1, and moving the first such vertex to position j
   keeps the columns before j and makes column j nonzero, a larger code.
   So canonical prefixes are connected, each new vertex gets at least one
   edge back, and every complete graph the search reaches is connected.
2. Frontier only.  By 1 the maximal code has nonzero columns, so only
   relabelings with nonzero columns need searching: position j takes an
   unplaced neighbour of a placed vertex, and its column is read from the
   positions of its at most three neighbours.
3. Start filter.  Vertex 0 of a maximal code maximises (degree d, edges e
   among its neighbours).  From a start of degree d, columns 1..d are at
   best its neighbours, top bit set, and column d+1 has the top bit clear.
   Those first d columns are at best 1, 2, 4 when no two neighbours are
   adjacent, and they grow strictly with e: (1, 3) for d = 2, e = 1 and
   (1, 3, 4), (1, 3, 6), (1, 3, 7) for d = 3, e = 1, 2, 3.  So at equal
   degree a larger e wins.  A start v below the maximum degree D loses:
   if no two of its neighbours are adjacent, any start of degree D gives
   columns 1..d(v)+1 at least 1, 2, .., 2**d(v), equal to v's best up to
   d(v) and larger at d(v)+1; if v lies in a triangle vab, then d(v) = 2,
   D = 3, and by connectivity a or b has degree 3 and starts with (1, 3,
   >= 4) against v's (1, 3, < 4).
4. Unfilled positions.  If the first position i below degree 3 is
   followed by placed positions, a vertex t added later joins i, and
   moving t to any placed position j > i gives column j a bit at
   position i, at least 2**(j-1-i).  So a prefix of a maximal code has a
   bit at a position <= i in each column j > i.

The walk also drops, before the canonicity test runs, children with no
maximal code below them by the degree counting checks (the m vertices
still to come take a total deficit between 1 and 3m of the same parity
as 3m, and none more than m each) and by two more facts.

5. Edges among the vertices to come.  Let a prefix have degree deficit
   D, the sum of 3 - d over its vertices, with m vertices still to come.
   Its own edges are all placed, so the later vertices send exactly D
   edges into it.  They have degree 3 each and share some E <= m(m-1)/2
   edges among themselves, so 3m = D + 2E and D >= 3m - m(m-1) = m(4-m).
   For m = 1, 2, 3 that asks D >= 3, 4, 3.  For m >= 4 it asks nothing,
   and D = 0 is refused on its own, as the prefix would be a component
   and by fact 1 the complete graph is connected.
6. Adjacent swap.  Swapping labels k-1 and k of a prefix on k+1 vertices
   leaves columns 1..k-2 as they are, and column k-1 becomes the old
   vertex k's adjacency to 0..k-2, which is col_k >> 1.  So if col_k >> 1
   > col_(k-1), the prefix is not maximal, and as a maximal code's
   prefixes are maximal, no code below it is.

The walk skips the canonicity test where it prunes too little, by one
more fact.

7. Skipped prefix tests.  A maximal code's prefixes are maximal, so the
   test on a prefix only prunes: a walk that skips it on some prefixes
   still emits exactly the maximal complete codes, in the same order, as
   long as it tests every complete code.  The walk skips it on children
   with one or two vertices to come, whose subtrees are too small to pay
   for it.  With m = 1 to come, a child that the walk passes has total
   deficit D >= 3 by fact 5, and the counting checks give D <= 3m = 3
   and each deficit at most m = 1, so exactly three vertices have
   deficit 1 and the last vertex joins all three.  The walk generates
   only that forced completion, judges it (fact 6 and every degree 3)
   and tests it once: that one call decides both the child and its only
   complete code.  A child with m = 2 to come is walked untested, and
   each of its children is judged by its forced completion.

Judging a child.  Let a prefix on k vertices have total deficit D and
first position i below degree 3, and let a child join the new vertex k
to a set S of s vertices below degree 3, with m = n - k - 1 to come
below it.  The walk reaches only prefixes that passed fact 4 (the root
on one vertex has no column), and it carries D and i down as it goes.

(a) Per size.  Each vertex of S loses one deficit and the new vertex has
    3 - s, so the child's total is D - 2s + 3.  The counting checks,
    fact 5 and the new vertex's own deficit 3 - s <= m read only that
    total, s and m, so they are decided once per size, before any
    combination of that size is built.  The parity check needs no test:
    a prefix on k vertices with e edges has total 3k - 2e, so 3m minus
    the child's total is 3(n - k - 1) - 3(k + 1) + 2e', which is even
    as n is even.  With m = 0 the one child joins
    every vertex below degree 3, and it is complete exactly when there
    are three of them, each of deficit 1, that is when D = 3.
(b) Largest deficit.  Each column is nonzero and vertex 1 joins vertex
    0, so below the root every vertex has degree at least 1 and deficit
    at most 2, and the root's deficit 3 comes with m = n - 2 >= 2.  So
    with m >= 3 no deficit exceeds m, and with m = 1 or 2 a vertex whose
    deficit exceeds m passes exactly when it is in S (with m = 0, (a)
    decides).
(c) Fact 4 on the new column.  Degrees only grow down the walk, so the
    child's first position i' below degree 3 is at least i: i never
    moves left.  Each old column j > i' is also > i, so by the parent's
    fact 4 it has a bit at a position <= i <= i'.  Only the new column k can
    fail, and its bits sit at positions below degree 3, all >= i.  If
    it holds bit i it passes, as i <= i'.  If it does not, i keeps its
    degree, so i' = i < k and the column has no bit at a position <= i'.
    So fact 4 is the test that S holds i, and with (b) the walk asks
    one thing of each column: that it holds every bit of one mask.
(d) Fact 6 compares the new column with the last one: col >> 1 >
    cols[-1].

A child that passes hands down D - 2s + 3 and i', found from i by
stepping over the positions at degree 3.

The canonicity test also prunes its own search by one more fact.

8. Found automorphisms.  The search places one vertex per position, and
   the subtree below a node depends only on the graph and the vertices
   placed, so an automorphism g that fixes a node's placed vertices maps
   the subtree below its child u onto the one below g(u), column for
   column.  A leaf whose code equals ``cols`` is a relabeling with the
   code of the identity, so the map v -> (the vertex at position v at
   that leaf) is an automorphism.
   (a) A tie ends a later sibling.  Let a child u be searched without a
   beat, with a tie leaf A in its subtree.  If the subtree of a later
   child u' of the same node (or of a later start) reaches a tie leaf B,
   then B A^-1 fixes the shared prefix and maps u to u', so the subtree
   of u' is the image of that of u and holds no beat: its search ends at
   B.  A tie leaf anywhere below u' ends it, so the stop passes down into
   the whole subtree of u', and a subtree ended so counts as searched
   without a beat, with a tie leaf.
   (b) Found orbits skip starts.  A partition of the vertices merges the
   class of each v with that of its image at every tie leaf, so its
   classes are orbits of the group that the found automorphisms
   generate.  A start in the class of a start already searched without a
   beat heads the image of that start's tree, and is skipped.
   Both prune only images of subtrees searched without a beat, so the
   test stays exact.
"""

from __future__ import annotations

import itertools
import random

from .graphs import Graph, vertex_bits


# ---------------------------------------------------------------------------
# canonical codes


def _is_max_code(masks, nbrs, n, cols) -> bool:
    """True iff no relabeling of the connected subcubic graph on n
    vertices with adjacency ``masks`` and neighbour lists ``nbrs`` yields
    a strictly larger column code than ``cols``.

    The search places one vertex per position, from the starts of fact 3
    and along the frontier of fact 2, and follows only the vertices whose
    column ties ``cols``.  It prunes by the automorphisms its tie leaves
    give (fact 8): a tie ends the subtree of a later sibling, and a start
    in the orbit of a start already searched is skipped."""
    # acc[u]: the column u would get at position j, shifted up by n - j
    acc = [0] * n
    scaled = [0] + [c << (n - j) for j, c in enumerate(cols, 1)]
    last = n - 1
    at = [0] * n  # at[j]: the vertex placed at position j
    # orbit[v]: v's class of the orbits found so far (fact 8b), a vertex
    # mask shared by its members
    orbit = [1 << v for v in range(n)]

    def beaten(j, placed, frontier, stop):
        """2 if a relabeling below this node has a larger code, else 1 if
        one has an equal code, else 0; with ``stop`` the first equal code
        ends the search (fact 8a)."""
        target = scaled[j]
        if j == last:  # the frontier is the one vertex left: a tie is a leaf
            u = frontier.bit_length() - 1
            a = acc[u]
            if a != target:
                return 2 if a > target else 0
            at[last] = u
            for v, w in enumerate(at):  # fact 8b: merge v with its image
                if not orbit[v] >> w & 1:
                    merged = orbit[v] | orbit[w]
                    for x in vertex_bits(merged):
                        orbit[x] = merged
            return 1
        ties = []
        w = frontier
        while w:
            b = w & -w
            w ^= b
            u = b.bit_length() - 1
            a = acc[u]
            if a >= target:
                if a > target:
                    return 2
                ties.append(u)
        bit = 1 << (last - j)
        tie = 0
        down = stop  # the stop passed to the children: stop or tie
        for u in ties:
            at[j] = u
            for v in nbrs[u]:
                acc[v] += bit
            here = placed | 1 << u
            found = beaten(j + 1, here, (frontier | masks[u]) & ~here, down)
            for v in nbrs[u]:
                acc[v] -= bit
            if found:
                if found == 2 or stop:
                    return found
                tie = down = 1
        return tie

    # 8 * degree + twice the edges among the neighbours, per vertex: the
    # key of fact 3, as twice the edges is at most 6
    keys = []
    for u, a in enumerate(nbrs):
        m = masks[u]
        key = 8 * len(a)
        for v in a:
            key += (masks[v] & m).bit_count()
        keys.append(key)
    best = max(keys)
    top = 1 << last
    searched = tie = 0
    for s in range(n):
        if keys[s] != best or orbit[s] & searched:
            continue
        searched |= 1 << s
        at[0] = s
        for v in nbrs[s]:
            acc[v] += top
        found = beaten(1, 1 << s, masks[s], tie)
        for v in nbrs[s]:
            acc[v] -= top
        if found == 2:
            return False
        tie |= found
    return True


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


def _walk(cols, degs, masks, nbrs, n, out, deficit, first):
    """Walk the children of the prefix ``cols`` on k vertices (a new
    vertex k joined to one to three earlier vertices of degree below 3)
    in decreasing last-column order, and append each maximal complete
    code below it to ``out``.  ``deficit`` is the prefix's total degree
    deficit and ``first`` its first position below degree 3.  Each child
    is judged from them before its masks are built; by fact 7 the
    canonicity test runs on complete codes and on children with at least
    three vertices to come, and the last vertex is generated only as the
    forced completion."""
    k = len(degs)
    m = n - k - 1  # vertices to come below each child
    eligible = [i for i in range(k) if degs[i] < 3]
    # (b), (c): the bits every child's column must hold, fact 4's position
    # and, with m <= 2, each vertex whose deficit exceeds m
    need = 1 << (k - 1 - first)
    if m <= 2:
        for i in eligible:
            if degs[i] < 3 - m:
                need |= 1 << (k - 1 - i)
    # (a): the sizes s whose child total D - 2s + 3 passes the counting
    # checks and fact 5; by fact 7 a complete child joins every vertex
    # below degree 3
    if m:
        sizes = []
        for s in (1, 2, 3):
            total = deficit - 2 * s + 3
            if 0 < total <= 3 * m and total >= m * (4 - m) and 3 - s <= m:
                sizes.append(s)
    else:
        sizes = (3,) if deficit == len(eligible) == 3 else ()
    kids = sorted(
        (
            (sum(1 << (k - 1 - i) for i in subset), subset)
            for size in sizes
            for subset in itertools.combinations(eligible, size)
        ),
        reverse=True,
    )
    last = cols[-1] if cols else 0  # the root's one child, column 1, passes fact 6
    for col, subset in kids:
        # (b), (c) and fact 6 (d)
        if col & need != need or col >> 1 > last:
            continue
        ncols = cols + (col,)
        ndegs = degs + [len(subset)]
        nmasks = masks + [0]
        nnbrs = nbrs + [subset]
        for i in subset:
            ndegs[i] += 1
            nmasks[i] |= 1 << k
            nmasks[k] |= 1 << i
            nnbrs[i] += (k,)
        if 0 < m < 3 or _is_max_code(nmasks, nnbrs, k + 1, ncols):
            if m:  # i' from i: degrees only grow down the walk
                nfirst = first
                while ndegs[nfirst] == 3:
                    nfirst += 1
                _walk(ncols, ndegs, nmasks, nnbrs, n, out, deficit - 2 * len(subset) + 3, nfirst)
            else:
                out.append(ncols)


def enumerate_cubic(n: int):
    """All connected cubic graphs on n vertices, one per isomorphism
    class, in decreasing canonical-code order."""
    if n % 2 or not 4 <= n <= 16:
        raise ValueError(f"n must be even with 4 <= n <= 16, got {n}")
    codes = []
    _walk((), [0], [0], [()], n, codes, 3, 0)  # from the prefix on 1 vertex, deficit 3
    return [_graph_from_cols(n, cols) for cols in codes]


def random_cubic(n: int, seed: int) -> Graph:
    """Random simple cubic graph from the half-edge pairing model: a
    pairing that `Graph` refuses (a loop or a repeated pair) is drawn
    again; deterministic per seed."""
    if n % 2 or n < 4:
        raise ValueError(f"n must be even and >= 4, got {n}")
    rng = random.Random(seed)
    while True:
        halves = [v for v in range(n) for _ in range(3)]
        rng.shuffle(halves)
        try:
            return Graph(n, [(halves[i], halves[i + 1]) for i in range(0, 3 * n, 2)])
        except ValueError:
            pass


# ---------------------------------------------------------------------------
# random paths


def random_simple_path(g: Graph, seed: int):
    """Seeded self-avoiding walk used to sample candidate (x,y)-paths;
    may stop early so short non-maximal paths occur too.  A start at an
    isolated vertex is drawn again with the seed 10007 higher, so g must
    have an edge; from any other start the walk takes at least one."""
    from .search import Path  # here, so that enumeration never loads search

    if not any(g.masks):
        raise ValueError("random simple path needs a graph with an edge")
    while True:
        rng = random.Random(seed)
        x = rng.randrange(g.n)
        if g.masks[x]:
            break
        seed += 10007
    path = [x]
    seen = {x}
    while True:
        nbrs = [w for w in g.neighbors(path[-1]) if w not in seen]
        if not nbrs:
            break
        if len(path) >= 2 and rng.random() < 0.2:
            break
        nxt = rng.choice(nbrs)
        path.append(nxt)
        seen.add(nxt)
    return Path(tuple(path))
